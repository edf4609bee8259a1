package netgen

import (
	"fmt"
	"os"
)

// Select returns the dataset the commands' -net, -load, -seed and -scale
// flags name: the snapshot file at load when one is given, else a
// generated network — internet2 or stanford at the given rule scale, or
// multitenant (four leaves, three tenants), all from seed.
func Select(name, load string, seed int64, scale float64) (*Dataset, error) {
	if load != "" {
		f, err := os.Open(load)
		if err != nil {
			return nil, err
		}
		ds, err := Read(f)
		_ = f.Close() // read-only; parse errors are what matter
		return ds, err
	}
	switch name {
	case "internet2":
		return Internet2Like(Config{Seed: seed, RuleScale: scale}), nil
	case "stanford":
		return StanfordLike(Config{Seed: seed, RuleScale: scale}), nil
	case "multitenant":
		return MultiTenantLike(4, 3, seed), nil
	}
	return nil, fmt.Errorf("unknown network %q", name)
}

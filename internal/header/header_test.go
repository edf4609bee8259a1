package header

import (
	"testing"
	"testing/quick"
)

func TestLayoutOffsets(t *testing.T) {
	if IPv4Dst.Bits() != 32 || IPv4Dst.Bytes() != 4 {
		t.Fatalf("IPv4Dst: bits=%d bytes=%d", IPv4Dst.Bits(), IPv4Dst.Bytes())
	}
	if FiveTuple.Bits() != 104 || FiveTuple.Bytes() != 13 {
		t.Fatalf("FiveTuple: bits=%d bytes=%d", FiveTuple.Bits(), FiveTuple.Bytes())
	}
	wantOffsets := map[string]int{"srcIP": 0, "dstIP": 32, "srcPort": 64, "dstPort": 80, "proto": 96}
	for name, off := range wantOffsets {
		f := FiveTuple.MustField(name)
		if f.Offset != off {
			t.Errorf("%s offset = %d, want %d", name, f.Offset, off)
		}
	}
}

func TestFieldByNameMissing(t *testing.T) {
	if _, ok := IPv4Dst.FieldByName("srcIP"); ok {
		t.Fatal("IPv4Dst must not have srcIP")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustField on a missing field must panic")
		}
	}()
	IPv4Dst.MustField("nope")
}

func TestSetGetRoundTrip(t *testing.T) {
	p := FiveTuple.NewPacket()
	FiveTuple.Set(p, "srcIP", 0x0A0B0C0D)
	FiveTuple.Set(p, "dstIP", 0xC0A80101)
	FiveTuple.Set(p, "srcPort", 54321)
	FiveTuple.Set(p, "dstPort", 443)
	FiveTuple.Set(p, "proto", 6)
	if got := FiveTuple.Get(p, "srcIP"); got != 0x0A0B0C0D {
		t.Errorf("srcIP = %x", got)
	}
	if got := FiveTuple.Get(p, "dstIP"); got != 0xC0A80101 {
		t.Errorf("dstIP = %x", got)
	}
	if got := FiveTuple.Get(p, "srcPort"); got != 54321 {
		t.Errorf("srcPort = %d", got)
	}
	if got := FiveTuple.Get(p, "dstPort"); got != 443 {
		t.Errorf("dstPort = %d", got)
	}
	if got := FiveTuple.Get(p, "proto"); got != 6 {
		t.Errorf("proto = %d", got)
	}
}

func TestSetGetQuick(t *testing.T) {
	err := quick.Check(func(src, dst uint32, sp, dp uint16, proto uint8) bool {
		p := FiveTuple.NewPacket()
		FiveTuple.Set(p, "srcIP", uint64(src))
		FiveTuple.Set(p, "dstIP", uint64(dst))
		FiveTuple.Set(p, "srcPort", uint64(sp))
		FiveTuple.Set(p, "dstPort", uint64(dp))
		FiveTuple.Set(p, "proto", uint64(proto))
		return FiveTuple.Get(p, "srcIP") == uint64(src) &&
			FiveTuple.Get(p, "dstIP") == uint64(dst) &&
			FiveTuple.Get(p, "srcPort") == uint64(sp) &&
			FiveTuple.Get(p, "dstPort") == uint64(dp) &&
			FiveTuple.Get(p, "proto") == uint64(proto)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestSetDoesNotClobberNeighbors(t *testing.T) {
	p := FiveTuple.NewPacket()
	for i := range p {
		p[i] = 0xFF
	}
	FiveTuple.Set(p, "dstIP", 0)
	if FiveTuple.Get(p, "srcIP") != 0xFFFFFFFF {
		t.Error("srcIP clobbered")
	}
	if FiveTuple.Get(p, "srcPort") != 0xFFFF {
		t.Error("srcPort clobbered")
	}
	if FiveTuple.Get(p, "dstIP") != 0 {
		t.Error("dstIP not cleared")
	}
}

func TestBitConvention(t *testing.T) {
	// Bit 0 is the MSB of byte 0 — the convention the BDD engine relies on.
	p := IPv4Dst.NewPacket()
	IPv4Dst.Set(p, "dstIP", 0x80000000)
	if GetBits(p, 0, 1) != 1 {
		t.Fatal("MSB of dstIP must be header bit 0")
	}
	for i := 1; i < 32; i++ {
		if GetBits(p, i, 1) != 0 {
			t.Fatalf("bit %d should be clear", i)
		}
	}
}

func TestString(t *testing.T) {
	p := IPv4Dst.NewPacket()
	IPv4Dst.Set(p, "dstIP", 0x0A000001)
	if got := IPv4Dst.String(p); got != "dstIP=0a000001" {
		t.Fatalf("String = %q", got)
	}
	if got := FormatIPv4(0x0A000001); got != "10.0.0.1" {
		t.Fatalf("FormatIPv4 = %q", got)
	}
}

func TestNewLayoutPanics(t *testing.T) {
	for _, c := range []struct {
		name   string
		fields []Field
	}{
		{"zero width", []Field{{Name: "a", Width: 0}}},
		{"too wide", []Field{{Name: "a", Width: 65}}},
		{"duplicate", []Field{{Name: "a", Width: 8}, {Name: "a", Width: 8}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("want panic")
				}
			}()
			NewLayout(c.fields...)
		})
	}
}

package main

// Example runs the program end to end and pins its output: the dataset
// and every random choice are seeded, so the output is deterministic.
func Example() {
	main()
	// Output:
	// contract: 4 properties hold
	//
	// proposal 1 (drop 240.0.0.0/8 at seattle): committed=true
	// proposal 2 (blackhole 15.43.213.100/32 at houston): committed=false
	//   violation: reachable(from=3, host=h5_15) — no packet reaches the host
	//
	// contract intact after both proposals ✔
}

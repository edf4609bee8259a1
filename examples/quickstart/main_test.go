package main

// Example runs the program end to end and pins its output: the dataset
// and every random choice are seeded, so the output is deterministic.
func Example() {
	main()
	// Output:
	// compiled 6300 rules into 161 predicates and 217 atomic predicates (avg tree depth 10.6)
	//
	// packet dst=201.105.71.176 entering sunnyvale
	//   stage 1: atomic predicate #31 found at depth 16
	//   stage 2: ingress=1 edges=3 deliver:h8_13
	//
	// packet dst=10.168.224.186 entering indianapolis
	//   stage 1: atomic predicate #50 found at depth 13
	//   stage 2: ingress=7 edges=3 deliver:h2_9
	//
	// packet dst=201.47.25.202 entering atlanta
	//   stage 1: atomic predicate #82 found at depth 14
	//   stage 2: ingress=8 edges=3 deliver:h1_12
	//
	// installing drop rule for 74.32.152.0/22 on seattle...
	//   behavior from seattle now: ingress=0 edges=0 drop@0(no matching output port)
	//
	// reconstructed AP Tree: avg depth 10.7 -> 10.7
}

package main

// Example runs the program end to end and pins its output: the dataset
// and every random choice are seeded, so the output is deterministic.
func Example() {
	main()
	// Output:
	// baseline learned for 40 monitored flows
	//
	// ATTACK: detouring dst 10.236.173.7 through denver...
	// ALARM: flow dst 10.236.173.7 from seattle deviates
	//   expected ingress=0 edges=3 deliver:h2_4
	//   observed ingress=0 edges=4 deliver:h2_4
	//   -> traffic now passes through denver (possible tap)
	//
	// detection sweep: 1/40 flows deviated
}

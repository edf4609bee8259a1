package main

// Example runs the program end to end and pins its output: the dataset
// and every random choice are seeded, so the output is deterministic.
func Example() {
	main()
	// Output:
	// monitored flow: dst 138.141.46.144, expected delivery to h1_12
	// expected path from houston: houston -> losangeles -> sunnyvale
	//
	// injecting faulty rule (blackhole 138.141.46.144/32) into sunnyvale...
	//
	// property violation detected: flow no longer reaches h1_12
	// actual behavior: ingress=5 edges=2 drop@1(no matching output port)
	//
	// localized fault at: sunnyvale
	// localization CORRECT ✔
	// after repair: flow delivered again ✔
}

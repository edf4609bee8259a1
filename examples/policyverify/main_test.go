package main

// Example runs the program end to end and pins its output: the dataset
// and every random choice are seeded, so the output is deterministic.
func Example() {
	main()
	// Output:
	// network: 16 boxes, 7568 rules, 57 ACL rules, 270 predicates
	//
	// property 1: forwarding correctness (identified vs expected, per ingress)
	//   200 flows × 16 ingresses checked, 0 violations
	//
	// property 2: backbone waypoint for inter-zone traffic
	//   200 inter-zone flows checked, 0 violations
	//
	// property 3: unrouted traffic is dropped
	//   200 unrouted flows checked, 0 violations
}

package main

// Example runs the program end to end and pins its output: the dataset
// and every random choice are seeded, so the output is deterministic.
func Example() {
	main()
	// Output:
	// -- without traversing the NAT --
	// from indianapolis: ingress=7 edges=0 drop@7(no matching output port)
	//
	// -- Type 1 (deterministic) NAT at chicago --
	// from chicago: ingress=6 edges=3 deliver:h3_7 rewrites=1
	// flow-table cache entries after first packet: 1
	// after second packet (cache hit): 1
	//
	// -- Type 3 (probabilistic) load balancer: VIP -> {A, B} --
	// from chicago: ingress=6 edges=3 deliver:h3_7 rewrites=1
	// probabilistic: false, possible deliveries: 1
}

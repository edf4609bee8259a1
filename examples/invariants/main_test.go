package main

// Example runs the program end to end and pins its output: the dataset
// and every random choice are seeded, so the output is deterministic.
func Example() {
	main()
	// Output:
	// analyzing 144 atoms over 9 boxes
	//
	// packets reaching h0_2    from seattle: (empty)
	// packets reaching h0_3    from seattle: 1.788e-05% of header space, e.g. dstIP=4f7e3200
	// packets reaching h0_4    from seattle: 0.002909% of header space, e.g. dstIP=8f398000
	//
	// blackholed at/after seattle: 98.17% of header space, e.g. dstIP=e0000000
	// loop freedom: HOLDS for all packets from all ingresses
	//
	// connectivity matrix (atoms traversing column when entering at row):
	//                seatt sunny losan denve kansa houst chica india atlan
	//        seattle   144    65    41    65    42    14    27    13    11
	//      sunnyvale    11   144    55    52    28    15    13    13    24
	//     losangeles    11    50   144    15    16    34    14    14    40
	//         denver    11    34    13   144    72    24    31    14     9
	//     kansascity    10    17    13    49   144    39    35    15     9
	//        houston    10    28    46    15    49   144    15    15    28
	//        chicago    10    14    26    29    66    17   144    19    37
	//   indianapolis    10    26    40    14    34    18    54   144    70
	//        atlanta    10    40    56    14    19    38    19    17   144
	//
	// injecting a routing loop for 10.0.0.0/8 between chicago and kansascity...
	// loop check now reports 2 violating (ingress, atom) pairs
	// example violating header: atom 144 from kansascity
}

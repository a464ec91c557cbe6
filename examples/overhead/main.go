// Encoding-overhead scenario: how many bytes does each recording scheme add
// to a data packet, as the network (and therefore path length) grows?
//
// This example drives the internal experiment harness directly — the same
// machinery behind `dophy-bench -exp T1` — so all schemes observe identical
// packet realisations.
//
// Run with:
//
//	go run ./examples/overhead
package main

import (
	"fmt"

	"dophy/internal/experiment"
)

func main() {
	fmt.Println("per-packet annotation cost by scheme (bytes)")
	fmt.Printf("%-7s %-9s %-8s %-9s %-9s %-8s\n",
		"nodes", "avg-hops", "dophy", "huffman", "compact", "raw")

	for _, side := range []int{5, 7, 10, 14} {
		sc := experiment.DefaultScenario()
		sc.Seed = 21 + uint64(side)
		sc.Topo = experiment.GridSpec(side)
		sc.Epochs = 2
		sc.EpochLen = 200
		sc.Schemes = experiment.Codecs
		res := experiment.Run(sc)
		fmt.Printf("%-7d %-9.1f %-8.2f %-9.2f %-9.2f %-8.2f\n",
			side*side,
			res.Topology.Summary().AvgHops,
			res.MeanBitsPerPacket(experiment.SchemeDophy)/8,
			res.MeanBitsPerPacket(experiment.SchemeHuffman)/8,
			res.MeanBitsPerPacket(experiment.SchemeCompact)/8,
			res.MeanBitsPerPacket(experiment.SchemeRaw)/8,
		)
	}

	fmt.Println("\nall schemes carry identical information (hop identity +")
	fmt.Println("retransmission count per hop) and achieve identical accuracy;")
	fmt.Println("arithmetic coding pays a fraction of a bit per hop record,")
	fmt.Println("below the 1-bit floor any prefix code (huffman) must pay.")
}

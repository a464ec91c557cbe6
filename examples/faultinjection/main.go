// Fault-injection scenario: nodes crash and recover while the network runs.
//
// A failed node's radio goes silent; the routing protocol discovers the
// hole through missed beacons and failed transmissions and re-homes entire
// subtrees — the most violent form of "dynamic sensor network". This
// example sweeps the failure rate and shows Dophy keeps estimating the
// links that are up while the static-path baselines smear loss across their
// stale trees. (Same machinery as `dophy-bench -exp F7`.)
//
// Run with:
//
//	go run ./examples/faultinjection
package main

import (
	"fmt"

	"dophy/internal/experiment"
)

func main() {
	fmt.Println("node failures: MTTR fixed at 60s, failure rate sweeps")
	fmt.Printf("%-9s  %-9s  %-12s  %-10s  %-10s\n",
		"MTBF(s)", "delivery", "churn/node", "dophy-MAE", "minc-MAE")

	for _, mtbf := range []float64{0, 1200, 600, 300} {
		sc := experiment.DefaultScenario()
		sc.Seed = 19
		if mtbf > 0 {
			sc.Radio.FailMTBF = experiment.Duration(mtbf)
			sc.Radio.FailMTTR = 60
		}
		sc.EpochLen = 400
		sc.Epochs = 3
		sc.Schemes = experiment.Baselines
		res := experiment.Run(sc)
		label := "none"
		if mtbf > 0 {
			label = fmt.Sprintf("%.0f", mtbf)
		}
		fmt.Printf("%-9s  %-9.4f  %-12.1f  %-10.4f  %-10.4f\n",
			label, res.MeanDeliveryRatio,
			res.ParentChangesPerNodePerEpoch,
			res.MeanAccuracy(experiment.SchemeDophy).MAE,
			res.MeanAccuracy(experiment.SchemeMINC).MAE)
	}

	fmt.Println("\neven at MTBF 300s (a node fails every five minutes on average),")
	fmt.Println("Dophy's per-link error stays several times below the tree baseline:")
	fmt.Println("retransmission counts keep naming the surviving links precisely.")
}

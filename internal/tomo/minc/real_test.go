package minc_test

import (
	"fmt"
	"sync"
	"testing"

	"dophy/internal/experiment"
	"dophy/internal/tomo/epochobs"
	"dophy/internal/topo"
)

// realCase is the run of epochs the baselines saw in one simulated
// deployment.
type realCase struct {
	name   string
	lt     *topo.LinkTable
	epochs []*epochobs.Epoch
}

var (
	realOnce  sync.Once
	realCases []realCase
)

// realEpochs simulates small deployments under a drifting radio, with and
// without forced parent churn and with retry budgets from none to seven,
// and returns the epochs an epochobs collector cut from their journeys.
// The runs are shared by every test that asks.
func realEpochs(t *testing.T) []realCase {
	t.Helper()
	realOnce.Do(func() {
		for _, v := range []struct {
			seed    uint64
			side    int
			churn   float64
			maxRetx int
			epochs  int
		}{
			{1, 4, 0, 7, 3},
			{3, 4, 0.5, 1, 3},
			{2, 7, 0.5, 7, 3},
			{4, 7, 0, 1, 3},
			{7, 12, 0, 1, 2},
			{5, 7, 0, 0, 3},
		} {
			sc := experiment.DefaultScenario()
			sc.Seed = v.seed
			sc.Topo = experiment.GridSpec(v.side)
			sc.Radio = experiment.RadioSpec{Kind: experiment.RadioRandomWalk, WalkStep: 0.3, WalkEvery: 5}
			sc.Routing.RandomizeParentProb = v.churn
			sc.Mac.MaxRetx = v.maxRetx
			s := experiment.NewSession(sc)
			lt := s.Topology().LinkTable()
			col := epochobs.New(lt)
			s.SubscribeJourneys(col.OnJourney)
			rc := realCase{
				name: fmt.Sprintf("seed %d, %dx%d grid, churn %v, MaxRetx %d", v.seed, v.side, v.side, v.churn, v.maxRetx),
				lt:   lt,
			}
			for range v.epochs {
				s.RunEpoch()
				rc.epochs = append(rc.epochs, col.EndEpoch())
			}
			realCases = append(realCases, rc)
		}
	})
	return realCases
}

package experiment

import "testing"

// The paper panels' rendered outputs at 3 iterations, seed 1, pinned byte
// for byte. They were recorded with every trial run scalar, one RunRound at
// a time, so they also pin the lane contract: any change to trial dispatch,
// lane batching or the fold shows up here.

const goldenFlockLabCSV = `testbed,sources,protocol,latency_ms_mean,latency_ms_ci95,radio_ms_mean,radio_ms_ci95,success_rate,ntx,sharing_chain
flocklab,3,S3,4658.153,13.306,5742.000,0.000,1.0000,12,75
flocklab,3,S4,897.159,3.278,931.225,2.924,1.0000,6,28
flocklab,6,S3,8995.407,8.814,10080.000,0.000,1.0000,12,150
flocklab,6,S4,1730.992,5.122,1766.213,4.572,1.0000,6,57
flocklab,10,S3,14788.662,18.468,15864.000,0.000,1.0000,12,250
flocklab,10,S4,2861.574,2.215,2896.401,2.337,1.0000,6,96
flocklab,24,S3,35016.172,11.635,36108.000,0.000,1.0000,12,600
flocklab,24,S4,6734.803,4.975,6770.135,4.275,1.0000,6,230
`

const goldenDCubeCSV = `testbed,sources,protocol,latency_ms_mean,latency_ms_ci95,radio_ms_mean,radio_ms_ci95,success_rate,ntx,sharing_chain
dcube,5,S3,24748.974,18.157,28288.960,0.000,1.0000,16,220
dcube,5,S4,3111.085,9.789,3148.913,9.131,1.0000,5,84
dcube,7,S3,34270.756,39.535,37790.144,0.000,1.0000,16,308
dcube,7,S4,4222.072,9.659,4258.207,9.273,1.0000,5,117
dcube,12,S3,58018.301,13.567,61543.104,0.000,1.0000,16,528
dcube,12,S4,7018.275,12.243,7055.813,10.270,1.0000,5,200
dcube,45,S3,214798.774,10.026,218312.640,0.000,1.0000,16,1980
dcube,45,S4,25490.008,9.880,25529.760,9.112,1.0000,5,748
`

const goldenBaselineTable = `FlockLab full network — S3 vs S4 vs HE-PPDA (per-node means)
proto    latency (ms)  radio-on (ms)     CPU (ms)  charge (mC)
S3            37911.3        39000.0          2.4       241.81
S4             7318.0         7351.0          2.4        45.59
HE            18819.7           72.0      12232.7        77.51
`

const goldenScalabilityTable = `Scalability — S3 vs S4 on growing random-geometric networks
nodes          S3 (ms)        S4 (ms)  lat ratio radio ratio
15              5706.5         1151.9      4.95x      5.13x
25             27869.4         4195.0      6.64x      6.81x
`

// goldenFlockLab65CSV is 65 trials: one full 64-lane batch plus a 1-trial
// remainder.
const goldenFlockLab65CSV = `testbed,sources,protocol,latency_ms_mean,latency_ms_ci95,radio_ms_mean,radio_ms_ci95,success_rate,ntx,sharing_chain
flocklab,3,S3,4658.497,3.433,5742.000,0.000,1.0000,12,75
flocklab,3,S4,894.106,0.989,929.073,0.881,1.0000,6,28
`

func checkGolden(t *testing.T, name, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("%s diverged from its golden\n got:\n%s\nwant:\n%s", name, got, want)
	}
}

func TestPanelGoldenSweeps(t *testing.T) {
	for _, tc := range []struct {
		spec SweepSpec
		want string
	}{
		{FlockLabSweep(3, 1), goldenFlockLabCSV},
		{DCubeSweep(3, 1), goldenDCubeCSV},
	} {
		res, err := RunSweep(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, tc.spec.Name+" CSV", res.CSV(), tc.want)
	}
}

func TestPanelGoldenBaseline(t *testing.T) {
	rows, err := BaselineComparison(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "BaselineTable", BaselineTable(rows), goldenBaselineTable)
}

func TestPanelGoldenScalability(t *testing.T) {
	points, err := ScalabilitySweep([]int{15, 25}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "ScalabilityTable", ScalabilityTable(points), goldenScalabilityTable)
}

func TestPanelGoldenAcrossLaneBatch(t *testing.T) {
	spec := FlockLabSweep(65, 1)
	spec.SourceCounts = []int{3}
	res, err := RunSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "65-iteration FlockLab CSV", res.CSV(), goldenFlockLab65CSV)
}

package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/scenario"
)

// dumpDigests pins each corpus scenario's history dump: [0] after one
// run at one worker, [1] after the expect.stale retrace ("" for the
// scenarios without one).
var dumpDigests = map[string][2]string{
	"asicflow":              {"dad139d369a8ccb130b7cf1dadfd9497926845612f816c4a93a60bd8d308178a", ""},
	"cancel-midrun":         {"4eead5eccd170b5785e8d3d29bc1b5e785271cefc11aa80931643d444e403375", ""},
	"chaos-hang-timeout":    {"8f4ef00cedd4cbe4ca24cbbae5db5e7cadf23aa1c27d779fd9f0b045be23c691", ""},
	"chaos-latency":         {"d8389cb4c33907aea57647dd2e1742d16f0b4baa432921b3556de1d6a83d7c9b", ""},
	"diamond-dense":         {"622b2aee77269dfff51eef369b0ec6d279cc40840ca6fb918792c30f97835902", ""},
	"docs-pipeline":         {"e5f1d0b64c516e0830193966014a9f2a9bff643265d6fab49f38e152cc8a2ec2", ""},
	"docs-translate-fanout": {"13820db181c98e68441800f22aab3399b61e1578c4a429ae50c5f68e65d7727b", ""},
	"fanout-cap":            {"d8de37076dad92ce3b6e92a1a9d1249204e6fc4f01f8b83a5502f6bc7e8b0bdc", ""},
	"fig2-compiled-sim":     {"213a9b92f8c1ecc5950dcc70a65c6bfbcb5aaff9deb57df517de1af61a63f105", ""},
	"fpga-pnr":              {"951d4015113c4886215ecb4374d5f247ae9f1dd7e30c86c1d024524eac6305d7", ""},
	"fpga-sweep":            {"a5b32f4ffa737e6d196aa4385997fe7915cff2d2d704d7a791461d144dd29908", ""},
	"fpga-warm-rerun":       {"067c0ec6d652e1a9a5bf0051658565e31fb869c481e93343bb9ad1e22c0f9c50", ""},
	"gen-diamond":           {"e63a2720814a495cd3b213520689c6cc2d1b53f04469290242769ec0f0004d69", ""},
	"optimize-models":       {"8f0f28652a31217128ebd6c6323894f8048c7cb849a18ca42342df6a71fe1436", ""},
	"pcb-basic":             {"6c298676c66304f0bb063aa67ad857966cc739c09d9ef16158b47e6c2ff0b599", ""},
	"pcb-drc-continue":      {"ab15c35abfaf70a62a056b153a9833b1821b9d18d4a62a19f5eebc27801df815", ""},
	"pcb-edit-stale":        {"4d5eb530f4141da0e19ff1262a351d60a9dc2a196878769e6497c1b0fda78010", "b15b7c08d9aa81d9be42291a25f012bdd2a28b847dbc85a6fe178599ff048613"},
	"pcb-panelize":          {"9b5de77b5b06c4cf800099e5aaf6aff0f56e38e986084e3ac507a43117afc7c8", ""},
	"quickstart":            {"1538941bf97c8c74f73b4b86d158a7f03aa7428956995044da2a26315ab95061", ""},
	"slow-chain":            {"fb13e7b578adb1ba661d3a4108539318c9be6ccb19a2528da056933f7eb95080", ""},
	"synth-basic":           {"3b0faf5f7586458f9c1312916546d5c7fc6e56a29a6496f5b575302b16215703", ""},
	"synth-edit-retrace":    {"9183dd559400cbd9a9731be86f52664d90958b3c442f3865fc7d5c1224a2c716", "e565d9a1b3db36913ccd8cc7f354c230cf7ca1e92c9e66ed3eaa875093332ed5"},
	"synth-multi-corner":    {"c5952f38f3dd3ab391c6a9be449d9ef68bea8472abe5bea774334f829c3e47f0", ""},
	"synth-retry-transient": {"e183e4f82443eeff24ca3f2de5c7734d6af84ac943d27ee5b765a05e6e72e0b3", ""},
	"wal-kill-resume":       {"c3495e7901c93cd7c64e9649f32ba02ecd227983d7f276ef022ba930b79c1bee", ""},
}

// TestHistoryDumpDigests runs every corpus scenario once and hashes the
// world's history dump after the run and, for expect.stale scenarios,
// after the retrace. The masked goldens carry neither User nor the
// artifacts' refs, and the sweep compares dumps only with each other,
// so these digests are what catch a run or retrace that records the
// wrong user or different bytes.
func TestHistoryDumpDigests(t *testing.T) {
	scs, err := scenario.LoadDir(corpusDir(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scs {
		t.Run(sc.Name, func(t *testing.T) {
			out, err := execute(sc, config{workers: 1}, sharedState{})
			if err != nil {
				t.Fatal(err)
			}
			defer out.close()
			if err := checkRunError(sc, out.cfg, out.err); err != nil {
				t.Fatal(err)
			}
			var got [2]string
			got[0] = sha256Hex(out.hist)
			if sc.Expect.Stale != nil {
				if err := checkStale(sc, out, Options{}, &Report{}); err != nil {
					t.Fatal(err)
				}
				hist, err := out.w.historyDump()
				if err != nil {
					t.Fatal(err)
				}
				got[1] = sha256Hex(hist)
			}
			want, ok := dumpDigests[sc.Name]
			if !ok {
				t.Fatalf("no pinned digests; got %q", got)
			}
			if got != want {
				t.Errorf("history dump digests = %q, want %q", got, want)
			}
		})
	}
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

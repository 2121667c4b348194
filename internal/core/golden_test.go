package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/sparse"
)

// scoreDigest hashes every stored (i, j, Float64bits(v)) of both sides in
// row order, the query side first.
func scoreDigest(r *Result) string {
	h := sha256.New()
	var rec [16]byte
	for _, f := range []*sparse.PairFrontier{r.QueryScores, r.AdScores} {
		f.Range(func(i, j int, v float64) bool {
			binary.LittleEndian.PutUint32(rec[0:], uint32(i))
			binary.LittleEndian.PutUint32(rec[4:], uint32(j))
			binary.LittleEndian.PutUint64(rec[8:], math.Float64bits(v))
			h.Write(rec[:])
			return true
		})
		h.Write([]byte{0xff}) // side separator
	}
	return hex.EncodeToString(h.Sum(nil))
}

//go:noinline
func mulAdd(x, y, z float64) float64 { return x*y + z }

// TestKernelBitsGolden pins the kernel's floating-point summation order,
// which the differential tests (map reference within 1e-12, push
// reference within 1e-15, parallel vs serial bit for bit) cannot see: the
// digests below must survive any change that claims to be exact. They
// were re-recorded once, when the pull kernel replaced the push kernel
// and every cell's sum was reordered to ascending j (pullGolden); the
// push kernel, kept as the test reference (push_test.go), must still
// reproduce the digests recorded at the commit before the cursor-scatter
// kernel (pushGolden), which proves it is the kernel it replaced. Both
// were recorded on the Jacobi loop, so the test runs runJacobi, which
// calls the production pass kernels, and runJacobiWith(pushSide);
// TestChainMatchesJacobi holds Run to runJacobi bit for bit, so together
// the two still pin the summation order of what Run computes.
func TestKernelBitsGolden(t *testing.T) {
	// The compiler may fuse x*y + z into one rounding on some targets
	// (arm64 does, amd64 does not), which legitimately changes bits:
	// (1+e)(1-e) is 1 - e² exactly, which rounds to 1 unless the product
	// stays unrounded.
	if e := math.Ldexp(1, -30); mulAdd(1+e, 1-e, -1) != 0 {
		t.Skip("this target fuses multiply-add; the recorded digests are for unfused arithmetic")
	}
	graphs := []struct {
		name string
		g    *clickgraph.Graph
	}{
		{"random", randomGraph(31, 60, 45, 140)},
		{"multi", multiComponentGraph(11, 5, 30, 22, 70)},
	}
	kernels := []struct {
		name   string
		pass   sidePass
		golden map[string]string
	}{{"pull", pullSide, pullGolden}, {"push", pushSide, pushGolden}}
	for _, gr := range graphs {
		for _, variant := range []Variant{Simple, Evidence, Weighted} {
			for _, prune := range []float64{0, 1e-4} {
				for _, strict := range []bool{false, true} {
					if strict && variant == Simple {
						continue // no evidence to be strict about
					}
					cfg := DefaultConfig().WithVariant(variant)
					cfg.PruneEpsilon = prune
					cfg.StrictEvidence = strict
					label := fmt.Sprintf("%s/%v/prune=%g/strict=%v", gr.name, variant, prune, strict)
					for _, k := range kernels {
						res, err := runJacobiWith(gr.g, cfg, 1, nil, k.pass)
						if err != nil {
							t.Fatal(err)
						}
						if got, want := scoreDigest(res), k.golden[label]; got != want {
							t.Errorf("%s %q: %q, recorded %q", k.name, label, got, want)
						}
					}
				}
			}
		}
	}
}

var pullGolden = map[string]string{
	"random/simrank/prune=0/strict=false":                     "fa090add104a2d244162197489d7fbdeba33daf8c0abdc82fc81052c6b2ccb87",
	"random/simrank/prune=0.0001/strict=false":                "018e9452c094c25820cc2ae69e06e17aa98ab404b41bc119da8e1eaa57e4948f",
	"random/evidence-based simrank/prune=0/strict=false":      "3a823488288e4e1f2bfd068e926758c9b8d3c3190fc14e7a265b2a320a721a51",
	"random/evidence-based simrank/prune=0/strict=true":       "0cf3410717daed2fbf97952f0e11701d8a4d9ff2192cee4403b2909079ec4e02",
	"random/evidence-based simrank/prune=0.0001/strict=false": "4f5d6be877718d6168c772f75c0e4e63016328bdc2d60a07b777040b372099df",
	"random/evidence-based simrank/prune=0.0001/strict=true":  "61f92eb0e409f07fd5c94194b81331df08eaf99f85b50870b510c30c08ceaf70",
	"random/weighted simrank/prune=0/strict=false":            "0dde3dbd6fca3147e120a741665decc1c45732cafa5bc6d7a87f3c72b968691d",
	"random/weighted simrank/prune=0/strict=true":             "bb960fc42d4fc9368b8842bc5d976bbc1cd99c38d67fc3cae669a29f8b20e5c5",
	"random/weighted simrank/prune=0.0001/strict=false":       "2dda7cb068ccded47e4ffa52b286f647535bb543c6ae5bf2271cf4b79b0448d9",
	"random/weighted simrank/prune=0.0001/strict=true":        "bb960fc42d4fc9368b8842bc5d976bbc1cd99c38d67fc3cae669a29f8b20e5c5",
	"multi/simrank/prune=0/strict=false":                      "ea302f0aa3ac3fde93f723de7339fc7b779e952a8c177fbd0a9949c0665577d6",
	"multi/simrank/prune=0.0001/strict=false":                 "ca9eb991131fbd317d6a281e0d95b09ca9340b662ba63ad367598aea2b9719f9",
	"multi/evidence-based simrank/prune=0/strict=false":       "789174cc325ef976f8bb4d9db05fdd5630704fcb61df02b481457f3bf4828eb2",
	"multi/evidence-based simrank/prune=0/strict=true":        "0ad3cf42c84ad4f0137ddf01426f7c5a32186283126c9d58b051233017c6912a",
	"multi/evidence-based simrank/prune=0.0001/strict=false":  "c1d04622d49adc7ee1f7181010bf7532951c8316278d2b9749f7ab69ee0be8a0",
	"multi/evidence-based simrank/prune=0.0001/strict=true":   "65a69cf37f2f0f8df618f1994dd6ef8509a607d118ca9a03a62c28085d23c85f",
	"multi/weighted simrank/prune=0/strict=false":             "e7be682d0279c9964d1fa75a9a8d224959e4aac796f37fab334bc4298e87940c",
	"multi/weighted simrank/prune=0/strict=true":              "0c0bd826fe0be23d67546752029c379e3450d18a2a934b264f6fd7b464c3d0de",
	"multi/weighted simrank/prune=0.0001/strict=false":        "6faf67181d0dea21f8bf717f037e22848bfb153e0e0ad70ac9efd5a117f7ef53",
	"multi/weighted simrank/prune=0.0001/strict=true":         "e8c6eb4c77adafbf9c02b9595953fbcc529ab2e9838ceb8990fbc5461084ce7d",
}

var pushGolden = map[string]string{
	"random/simrank/prune=0/strict=false":                     "8753cd86257649e10f56dbd9cb1e3971cdcbce8883fe2d9a544c9c4acb13dfb6",
	"random/simrank/prune=0.0001/strict=false":                "cdf38e60a3ce0a54dcf1865dee550569eb29af4d22d263eaf1c43b600e0930be",
	"random/evidence-based simrank/prune=0/strict=false":      "c3672b3b7bf5e6d6ac2dd5c3df617c876cc9835d393fde7198aee48a72b8b4c9",
	"random/evidence-based simrank/prune=0/strict=true":       "c53879d4ecdc43a1b0838dc502226792aa2d603dd155db8572cc04f0ed52d212",
	"random/evidence-based simrank/prune=0.0001/strict=false": "675dbc6abff733defdb4e93f5e56c22474b1c180b51915107e44532d0cc674fc",
	"random/evidence-based simrank/prune=0.0001/strict=true":  "93d736d816958b28281f409d3becb9adbb743c87792517d6e831769d7cc89417",
	"random/weighted simrank/prune=0/strict=false":            "60dc670b2f989709816d2de04a45769d0f8a03a9d6e02bde78d5fe786c8f0432",
	"random/weighted simrank/prune=0/strict=true":             "6307ac8ea12439b9476ae2534d0e9d7f02b7214a91ed6a4487a2e56725a2822c",
	"random/weighted simrank/prune=0.0001/strict=false":       "1bb502836ee87bf3499cc89f80ef45dde04cd951e1972ca88792e34953266101",
	"random/weighted simrank/prune=0.0001/strict=true":        "6307ac8ea12439b9476ae2534d0e9d7f02b7214a91ed6a4487a2e56725a2822c",
	"multi/simrank/prune=0/strict=false":                      "0cea3833fcaf5248cbea060b545c66fd3025f9a28c0e7ad9015f5d01c30b0e12",
	"multi/simrank/prune=0.0001/strict=false":                 "8851b223e1a5193720ab675666f0dfc30a458e80bbc7cb1dbf5065edfa8d425c",
	"multi/evidence-based simrank/prune=0/strict=false":       "a00a28c73cf38f86d51d1b98ad388c521dba20ebb94d5bd64748d11f3b823747",
	"multi/evidence-based simrank/prune=0/strict=true":        "004e39207ef8ba14dc91bd5b4f55a2d70c164cbab4c83badc654a111cfb1de59",
	"multi/evidence-based simrank/prune=0.0001/strict=false":  "02a0b9a2617c6092fa30d10b5449638a63f0469b9415fdcb3bdb3cf4141903fe",
	"multi/evidence-based simrank/prune=0.0001/strict=true":   "9144e15f211364e82d3bc97116b80764a2a9903118bef76b3a0b503bb56dfe5b",
	"multi/weighted simrank/prune=0/strict=false":             "7beaa540a3d08e9d0bfcf9ca9031a6cbc483cc7cb5fcb614f08eab05b369c25e",
	"multi/weighted simrank/prune=0/strict=true":              "218b28d1c40814a1de0a151160cb56ed7876dfc70c192516bce391f2f5fb27c9",
	"multi/weighted simrank/prune=0.0001/strict=false":        "ac8c11934c0f3a2d30f4766d3432d503c007f9f0ec0a927cd958d9a8a264e0fa",
	"multi/weighted simrank/prune=0.0001/strict=true":         "f8b7f0f619a12b8c7f90192e67803c605892db95342823c16546603a10e199a7",
}

package service

import (
	"crypto/sha256"
	"encoding/hex"
	"net/http/httptest"
	"strings"
	"testing"
)

// scenarioGolden is one request and the exact response it must produce. A
// want of the form "sha256:<hex>" pins a long body by its digest.
type scenarioGolden struct {
	method, path, body string
	status             int
	want               string
}

// runScenarioGoldens replays the requests in order against one fresh service,
// so state a request leaves behind (trained profiles, the isolation list) is
// part of what the later responses pin.
func runScenarioGoldens(t *testing.T, cases []scenarioGolden) {
	t.Helper()
	svc := New(Config{Workers: 2})
	defer svc.Close()
	mux := svc.Handler()
	for i, c := range cases {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, strings.NewReader(c.body)))
		got := rec.Body.String()
		if digest, ok := strings.CutPrefix(c.want, "sha256:"); ok {
			sum := sha256.Sum256(rec.Body.Bytes())
			got = "sha256:" + hex.EncodeToString(sum[:])
			if hex.EncodeToString(sum[:]) == digest {
				got = c.want
			}
		}
		if rec.Code != c.status || got != c.want {
			t.Errorf("case %d %s %s %s:\n got %d %q\nwant %d %q", i, c.method, c.path, c.body, rec.Code, got, c.status, c.want)
		}
	}
}

// TestTrainBatchResponseGolden pins /v1/train/batch byte for byte — the
// sweep's response and every profile it installs — over a grid spanning the
// random placement, a grid topology under SMR and a tier-2 range, plus the
// scenario rejections.
func TestTrainBatchResponseGolden(t *testing.T) {
	runScenarioGoldens(t, []scenarioGolden{
		{"POST", "/v1/train/batch", `{"runs":5,"seed":7,"scenarios":[{"topo":"random"},{"topo":"uniform6x6","protocol":"smr"},{"topo":"cluster","tier":2,"protocol":"dsr"},{"topo":"uniform10x6","protocol":"aomdv","profile":"wide"}]}`, 200, "{\"scenarios\":[{\"profile\":\"random-1tier-MR\",\"label\":\"random-1tier/MR\",\"runs\":5,\"trained\":true},{\"profile\":\"uniform6x6-1tier-SMR\",\"label\":\"uniform6x6-1tier/SMR\",\"runs\":5,\"trained\":true},{\"profile\":\"cluster-2tier-DSR\",\"label\":\"cluster-2tier/DSR\",\"runs\":5,\"trained\":true},{\"profile\":\"wide\",\"label\":\"uniform10x6-1tier/AOMDV\",\"runs\":5,\"trained\":true}],\"runs\":5,\"cells\":20,\"seed\":7}\n"},
		{"GET", "/v1/profiles/random-1tier-MR", "", 200, "sha256:e229ba872564d8e1e3c3c7b72e376583050f37c141c7696ae5683b80da55a33a"},
		{"GET", "/v1/profiles/uniform6x6-1tier-SMR", "", 200, "sha256:734c433da0ecf1a4af3b1d0b70497e3a16456c786c5e8c00f7fa3b0fd2090860"},
		{"GET", "/v1/profiles/cluster-2tier-DSR", "", 200, "sha256:d62acc8ded0793084a228079c89ec87132a76b2670c4c35351bb32957c30658b"},
		{"GET", "/v1/profiles/wide", "", 200, "sha256:43ac5caa7f8594ff11018e3a562d8025bab4f918c522bd4e3053af83150da208"},
		{"POST", "/v1/train/batch", `{"runs":3,"scenarios":[{"topo":"cluster"}]}`, 200, "{\"scenarios\":[{\"profile\":\"cluster-1tier-MR\",\"label\":\"cluster-1tier/MR\",\"runs\":3,\"trained\":true}],\"runs\":3,\"cells\":3,\"seed\":2005}\n"},
		{"GET", "/v1/profiles/cluster-1tier-MR", "", 200, "sha256:ce6589582cb145842f8cc5becbc8e9e7aecc84eb2fad35b75d8cf3b39697c261"},
		{"POST", "/v1/train/batch", `{"scenarios":[{"topo":"cluster","tier":5}]}`, 400, "{\"error\":\"scenario 0: tier 5 out of range [1,4]\"}\n"},
		{"POST", "/v1/train/batch", `{"scenarios":[{"topo":"cluster","tier":-1}]}`, 400, "{\"error\":\"scenario 0: tier -1 out of range [1,4]\"}\n"},
		{"POST", "/v1/train/batch", `{"scenarios":[{"topo":"cluster"},{"topo":"torus"}]}`, 400, "{\"error\":\"scenario 1: unknown topology \\\"torus\\\" (want one of [cluster uniform6x6 uniform10x6 random])\"}\n"},
		{"POST", "/v1/train/batch", `{"scenarios":[{"topo":"cluster","protocol":"ospf"}]}`, 400, "{\"error\":\"scenario 0: unknown protocol \\\"ospf\\\" (want one of [mr smr dsr aomdv aodv mdsr])\"}\n"},
		{"POST", "/v1/train/batch", `{"scenarios":[{"topo":"cluster"},{"topo":"cluster","protocol":"mr"}]}`, 400, "{\"error\":\"scenario 1: profile \\\"cluster-1tier-MR\\\" already produced by scenario 0\"}\n"},
	})
}

// clusterRoutes is a route set valid in the tier-1 cluster topology, for the
// client-supplied-routes verify cases.
const clusterRoutes = `[[1,5,9,10,14,17,19,21,23,25,28,32,36,40],[1,5,9,13,16,18,20,22,24,27,31,32,36,40],[1,2,6,10,14,17,19,21,23,25,28,32,36,40]]`

// TestVerifyResponseGolden pins /v1/verify byte for byte across behaviours,
// attack variants (chain removes its colluders from the endpoint pools, so
// the pair must be drawn after the attack is built), client-supplied routes,
// the isolation list the requests leave behind, and the rejections.
func TestVerifyResponseGolden(t *testing.T) {
	runScenarioGoldens(t, []scenarioGolden{
		{"POST", "/v1/verify", `{"scenario":{"topo":"cluster"},"behavior":"forge"}`, 200, "{\"label\":\"cluster-1tier/MR\",\"suspect\":{\"a\":9,\"b\":32},\"likelihood\":1,\"condemned\":true,\"probes\":3,\"evidence\":[{\"kind\":\"proof-invalid\",\"route\":[2,6,5,9,32,36],\"probe_id\":3,\"attempt\":1,\"at\":22.990999354478753},{\"kind\":\"proof-invalid\",\"route\":[2,6,10,9,32,36],\"probe_id\":4,\"attempt\":1,\"at\":23.195190264066557},{\"kind\":\"proof-invalid\",\"route\":[2,1,5,9,32,36],\"probe_id\":2,\"attempt\":1,\"at\":23.219032231011102}],\"isolated\":false,\"isolation_size\":0,\"seed\":2005}\n"},
		{"POST", "/v1/verify", `{"scenario":{"topo":"cluster"},"attack":"forge"}`, 200, "{\"label\":\"cluster-1tier/MR\",\"suspect\":{\"a\":2,\"b\":6},\"likelihood\":0.3333333333333333,\"condemned\":false,\"probes\":3,\"evidence\":[{\"kind\":\"ack-valid\",\"route\":[2,6,10,14,17,16,18,20,22,24,27,31,35,36],\"probe_id\":3,\"attempt\":1,\"at\":61.925585110745665},{\"kind\":\"ack-valid\",\"route\":[2,6,10,14,17,19,21,20,22,24,27,31,35,36],\"probe_id\":4,\"attempt\":1,\"at\":61.98661558886988},{\"kind\":\"ack-missing\",\"route\":[2,6,10,14,17,19,21,23,25,28,32,36],\"probe_id\":2,\"attempt\":2,\"at\":162.5900031065011}],\"isolated\":false,\"isolation_size\":0,\"seed\":2005}\n"},
		{"POST", "/v1/verify", `{"scenario":{"topo":"cluster","protocol":"dsr"},"attack":"forge","behavior":"forward"}`, 200, "{\"label\":\"cluster-1tier/DSR\",\"suspect\":{\"a\":20,\"b\":22},\"likelihood\":0,\"condemned\":false,\"probes\":3,\"evidence\":[{\"kind\":\"ack-valid\",\"route\":[12,13,16,18,20,22,24,27,31],\"probe_id\":2,\"attempt\":1,\"at\":46.54162638176988},{\"kind\":\"ack-valid\",\"route\":[12,13,16,18,20,22,24,27,28,32,31],\"probe_id\":3,\"attempt\":1,\"at\":50.49239676910081},{\"kind\":\"ack-valid\",\"route\":[12,13,16,18,20,22,24,27,26,30,31],\"probe_id\":4,\"attempt\":1,\"at\":50.53544222951443}],\"isolated\":false,\"isolation_size\":0,\"seed\":2005}\n"},
		{"POST", "/v1/verify", `{"scenario":{"topo":"cluster"},"attack":"chain"}`, 200, "{\"label\":\"cluster-1tier/MR\",\"suspect\":{\"a\":2,\"b\":6},\"likelihood\":1,\"condemned\":true,\"probes\":3,\"evidence\":[{\"kind\":\"ack-missing\",\"route\":[2,6,10,14,17,19,21,23,25,28,32,36],\"probe_id\":2,\"attempt\":2,\"at\":158.3938217235775},{\"kind\":\"ack-missing\",\"route\":[2,6,10,14,17,19,21,23,25,32,36],\"probe_id\":3,\"attempt\":2,\"at\":158.3938217235775},{\"kind\":\"ack-missing\",\"route\":[2,6,10,14,17,16,18,20,25,28,32,36],\"probe_id\":4,\"attempt\":2,\"at\":158.3938217235775}],\"isolated\":false,\"isolation_size\":0,\"seed\":2005}\n"},
		{"POST", "/v1/verify", `{"scenario":{"topo":"uniform6x6","tier":2},"attack":"chain","seed":3}`, 200, "{\"label\":\"uniform6x6-2tier/MR\",\"suspect\":{\"a\":1,\"b\":13},\"likelihood\":0,\"condemned\":false,\"probes\":3,\"evidence\":[{\"kind\":\"ack-valid\",\"route\":[1,13,15,22,28],\"probe_id\":3,\"attempt\":1,\"at\":19.844524276131978},{\"kind\":\"ack-valid\",\"route\":[1,13,15,21,28],\"probe_id\":2,\"attempt\":1,\"at\":19.892381488835582},{\"kind\":\"ack-valid\",\"route\":[1,13,20,22,28],\"probe_id\":4,\"attempt\":1,\"at\":19.93389314575305}],\"isolated\":false,\"isolation_size\":0,\"seed\":3}\n"},
		{"POST", "/v1/verify", `{"scenario":{"topo":"cluster"},"attack":"latent","behavior":"greyhole"}`, 200, "{\"label\":\"cluster-1tier/MR\",\"suspect\":{\"a\":9,\"b\":32},\"likelihood\":0.6666666666666666,\"condemned\":false,\"probes\":3,\"evidence\":[{\"kind\":\"ack-valid\",\"route\":[2,1,5,9,32,36],\"probe_id\":4,\"attempt\":2,\"at\":117.1715690249007},{\"kind\":\"ack-missing\",\"route\":[2,6,5,9,32,36],\"probe_id\":2,\"attempt\":2,\"at\":158.6434624493274},{\"kind\":\"ack-missing\",\"route\":[2,6,10,9,32,36],\"probe_id\":3,\"attempt\":2,\"at\":158.6434624493274}],\"isolated\":false,\"isolation_size\":0,\"seed\":2005}\n"},
		{"POST", "/v1/verify", `{"scenario":{"topo":"cluster"},"attack":"adaptive"}`, 200, "{\"label\":\"cluster-1tier/MR\",\"suspect\":{\"a\":2,\"b\":6},\"likelihood\":1,\"condemned\":true,\"probes\":3,\"evidence\":[{\"kind\":\"ack-missing\",\"route\":[2,6,10,14,17,19,21,23,25,28,32,36],\"probe_id\":2,\"attempt\":2,\"at\":162.83877569345375},{\"kind\":\"ack-missing\",\"route\":[2,6,5,9,32,36],\"probe_id\":3,\"attempt\":2,\"at\":162.83877569345375},{\"kind\":\"ack-missing\",\"route\":[2,6,10,9,13,16,18,20,22,24,27,31,35,36],\"probe_id\":4,\"attempt\":2,\"at\":162.83877569345375}],\"isolated\":false,\"isolation_size\":0,\"seed\":2005}\n"},
		{"POST", "/v1/verify", `{"scenario":{"topo":"uniform10x6","protocol":"smr"},"wormholes":2,"seed":11}`, 200, "{\"label\":\"uniform10x6-1tier/SMR\",\"suspect\":{\"a\":9,\"b\":10},\"likelihood\":1,\"condemned\":true,\"probes\":3,\"evidence\":[{\"kind\":\"ack-missing\",\"route\":[10,9,3,2,57,51],\"probe_id\":2,\"attempt\":2,\"at\":146.10795060480206},{\"kind\":\"ack-missing\",\"route\":[10,9,3,2,57,56,50,51],\"probe_id\":3,\"attempt\":2,\"at\":146.10795060480206},{\"kind\":\"ack-missing\",\"route\":[10,9,3,2,57,58,52,51],\"probe_id\":4,\"attempt\":2,\"at\":146.10795060480206}],\"isolated\":false,\"isolation_size\":0,\"seed\":11}\n"},
		{"POST", "/v1/verify", `{"scenario":{"topo":"random"},"seed":5}`, 200, "{\"label\":\"random-1tier/MR\",\"suspect\":{\"a\":2,\"b\":16},\"likelihood\":1,\"condemned\":true,\"probes\":3,\"evidence\":[{\"kind\":\"ack-missing\",\"route\":[36,20,16,2,56,31,10,50,49,40,38,11,14,27],\"probe_id\":2,\"attempt\":2,\"at\":156.5285226386099},{\"kind\":\"ack-missing\",\"route\":[36,20,16,2,56,31,10,50,49,40,30,11,14,27],\"probe_id\":3,\"attempt\":2,\"at\":156.5285226386099},{\"kind\":\"ack-missing\",\"route\":[36,20,16,2,56,31,10,50,49,26,38,11,14,27],\"probe_id\":4,\"attempt\":2,\"at\":156.5285226386099}],\"isolated\":false,\"isolation_size\":0,\"seed\":5}\n"},
		{"POST", "/v1/verify", `{"scenario":{"topo":"cluster"},"wormholes":0}`, 200, "{\"label\":\"cluster-1tier/MR\",\"suspect\":{\"a\":6,\"b\":10},\"likelihood\":0,\"condemned\":false,\"probes\":3,\"evidence\":[{\"kind\":\"ack-valid\",\"route\":[2,6,10,14,17,19,21,23,25,28,32,36],\"probe_id\":2,\"attempt\":1,\"at\":52.6082604881089},{\"kind\":\"ack-valid\",\"route\":[2,6,10,14,17,19,21,23,25,28,27,31,35,36],\"probe_id\":4,\"attempt\":1,\"at\":56.88535113607431},{\"kind\":\"ack-valid\",\"route\":[2,6,10,9,13,16,18,20,22,24,27,31,35,36],\"probe_id\":3,\"attempt\":1,\"at\":56.909775400257395}],\"isolated\":false,\"isolation_size\":0,\"seed\":2005}\n"},
		{"POST", "/v1/verify", `{"scenario":{"topo":"cluster"},"isolate":true}`, 200, "{\"label\":\"cluster-1tier/MR\",\"suspect\":{\"a\":9,\"b\":32},\"likelihood\":1,\"condemned\":true,\"probes\":3,\"evidence\":[{\"kind\":\"ack-missing\",\"route\":[2,1,5,9,32,36],\"probe_id\":2,\"attempt\":2,\"at\":144.89704166242325},{\"kind\":\"ack-missing\",\"route\":[2,6,5,9,32,36],\"probe_id\":3,\"attempt\":2,\"at\":144.89704166242325},{\"kind\":\"ack-missing\",\"route\":[2,6,10,9,32,36],\"probe_id\":4,\"attempt\":2,\"at\":144.89704166242325}],\"isolated\":true,\"isolation_size\":1,\"seed\":2005}\n"},
		{"POST", "/v1/verify", `{"scenario":{"topo":"cluster"},"routes":` + clusterRoutes + `}`, 200, "{\"label\":\"cluster-1tier/MR\",\"suspect\":{\"a\":32,\"b\":36},\"likelihood\":1,\"condemned\":true,\"probes\":3,\"evidence\":[{\"kind\":\"ack-missing\",\"route\":[1,5,9,10,14,17,19,21,23,25,28,32,36,40],\"probe_id\":1,\"attempt\":2,\"at\":128},{\"kind\":\"ack-missing\",\"route\":[1,5,9,13,16,18,20,22,24,27,31,32,36,40],\"probe_id\":2,\"attempt\":2,\"at\":128},{\"kind\":\"ack-missing\",\"route\":[1,2,6,10,14,17,19,21,23,25,28,32,36,40],\"probe_id\":3,\"attempt\":2,\"at\":128}],\"isolated\":false,\"isolation_size\":1,\"seed\":2005}\n"},
		{"POST", "/v1/verify", `{"scenario":{"topo":"cluster"},"routes":` + clusterRoutes + `,"suspect":{"a":21,"b":23},"isolate":true}`, 200, "{\"label\":\"cluster-1tier/MR\",\"suspect\":{\"a\":21,\"b\":23},\"likelihood\":1,\"condemned\":true,\"probes\":2,\"evidence\":[{\"kind\":\"ack-missing\",\"route\":[1,5,9,10,14,17,19,21,23,25,28,32,36,40],\"probe_id\":1,\"attempt\":2,\"at\":128},{\"kind\":\"ack-missing\",\"route\":[1,2,6,10,14,17,19,21,23,25,28,32,36,40],\"probe_id\":2,\"attempt\":2,\"at\":128}],\"isolated\":true,\"isolation_size\":2,\"seed\":2005}\n"},
		{"POST", "/v1/verify", `{"scenario":{"topo":"cluster"},"retries":-1,"timeout":-1,"max_probes":2,"isolate":true}`, 200, "{\"label\":\"cluster-1tier/MR\",\"suspect\":{\"a\":9,\"b\":32},\"likelihood\":1,\"condemned\":true,\"probes\":0,\"evidence\":[{\"kind\":\"pair-isolated\",\"at\":16.897041662423263}],\"isolated\":true,\"isolation_size\":2,\"seed\":2005}\n"},
		{"GET", "/v1/isolation", "", 200, "{\"pairs\":[{\"pair\":{\"a\":9,\"b\":32},\"likelihood\":1,\"probes\":3},{\"pair\":{\"a\":21,\"b\":23},\"likelihood\":1,\"probes\":2}]}\n"},
		{"POST", "/v1/verify", `{"scenario":{"topo":"torus"}}`, 400, "{\"error\":\"scenario 0: unknown topology \\\"torus\\\" (want one of [cluster uniform6x6 uniform10x6 random])\"}\n"},
		{"POST", "/v1/verify", `{"scenario":{"topo":"cluster","tier":5}}`, 400, "{\"error\":\"scenario 0: tier 5 out of range [1,4]\"}\n"},
		{"POST", "/v1/verify", `{"scenario":{"topo":"cluster","protocol":"ospf"}}`, 400, "{\"error\":\"scenario 0: unknown protocol \\\"ospf\\\" (want one of [mr smr dsr aomdv aodv mdsr])\"}\n"},
		{"POST", "/v1/verify", `{"scenario":{"topo":"cluster"},"behavior":"teleport"}`, 400, "{\"error\":\"unknown behavior \\\"teleport\\\" (want blackhole, greyhole, forward or forge)\"}\n"},
		{"POST", "/v1/verify", `{"scenario":{"topo":"cluster"},"wormholes":3}`, 400, "{\"error\":\"wormholes 3 out of range [0,2]\"}\n"},
		{"POST", "/v1/verify", `{"scenario":{"topo":"cluster"},"wormholes":-1}`, 400, "{\"error\":\"wormholes -1 out of range [0,2]\"}\n"},
		{"POST", "/v1/verify", `{"scenario":{"topo":"cluster"},"attack":"nope"}`, 400, "{\"error\":\"attack: unknown variant \\\"nope\\\" (known: [adaptive chain classic forge latent])\"}\n"},
		{"POST", "/v1/verify", `{"scenario":{"topo":"cluster"},"attack":"latent","wormholes":1}`, 400, "{\"error\":\"wormholes only parameterizes the classic attack variant\"}\n"},
		{"POST", "/v1/verify", `{"scenario":{"topo":"cluster","protocol":"aomdv"},"attack":"forge"}`, 400, "{\"error\":\"attack \\\"forge\\\" requires the mr or dsr protocol\"}\n"},
		{"POST", "/v1/verify", `{"scenario":{"topo":"cluster"},"routes":[[0,999999]]}`, 422, "{\"error\":\"route 0: node 999999 outside the 42-node scenario topology\"}\n"},
	})
}

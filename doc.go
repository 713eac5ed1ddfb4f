// Package samnet is a from-scratch reproduction of "Wormhole Attacks
// Detection in Wireless Ad Hoc Networks: A Statistical Analysis Approach"
// (Song, Qian, Li — IPDPS 2005): a deterministic wireless ad hoc network
// simulator, DSR and SMR-style multi-path route discovery, wormhole /
// blackhole / greyhole adversaries, the SAM statistical detector with its
// three-step detection pipeline and IDS integration, a geographic
// packet-leash baseline, and an experiment harness that regenerates every
// table and figure of the paper's evaluation.
//
// The root package holds the library facade (api.go) and the benchmark
// suite (bench_test.go); the implementation lives under internal/, the
// executables under cmd/, and the examples, as Example tests with pinned
// output, under examples/.
package samnet

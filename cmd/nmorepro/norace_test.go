//go:build !race

package main

// quickExps is the artifact list TestQuickArtifactsGolden runs: the
// whole quick subset of testdata/quick.txt.
const quickExps = quickSubset

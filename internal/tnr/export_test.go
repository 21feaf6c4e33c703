package tnr

// BuildFlawedIndex is the index behind BuildFlawed, whose layers
// TestGoldenDigests hashes through Save.
var BuildFlawedIndex = buildFlawed

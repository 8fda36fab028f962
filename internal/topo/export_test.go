package topo

// CheckLayers and CheckCounters export checkLayers and checkCounters to the
// topo_test package, whose tests run them on the bitonic, periodic and tree
// constructions.
var CheckLayers, CheckCounters = checkLayers, checkCounters

package topo

// CheckLayers exports checkLayers to the topo_test package, whose tests
// run it on the bitonic, periodic and tree constructions.
var CheckLayers = checkLayers

package metrics

// KLDivergenceBlocks exposes klDivergence to the external tests: KL summed
// in blocks of block groups on at most workers goroutines.
var KLDivergenceBlocks = klDivergence

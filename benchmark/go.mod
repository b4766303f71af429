// The benchmark is a module of its own so that it builds from its own
// directory and stays out of the root module's ./... patterns; the replace
// points at the engine it measures, and the datalaws/ import-path prefix
// lets it reach datalaws/internal/... from outside the root module.
module datalaws/benchmark

go 1.24

require datalaws v0.0.0

replace datalaws => ../

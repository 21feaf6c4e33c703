// The benchmark is a module of its own so that it carries its own build
// file; the replace directive points it at the repository it measures.
module roadnet/bench

go 1.24

require roadnet v0.0.0

replace roadnet => ../

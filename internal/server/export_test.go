package server

// WithBatchLimits sets the batch guards, which production keeps at the
// DefaultMaxBatch* constants, low enough for a test to trip: maxPairs bounds
// each id list and the sources x targets product, maxRoutePairs that product
// on /v1/batch/route, and maxBody the request body in bytes.
func WithBatchLimits(maxPairs, maxRoutePairs int, maxBody int64) Option {
	return func(s *Server) {
		s.maxBatchPairs, s.maxBatchRoutePairs, s.maxBatchBody = maxPairs, maxRoutePairs, maxBody
	}
}

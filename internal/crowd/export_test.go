package crowd

// Reseed restarts the worker's random stream, so that a benchmark iteration
// repeats the previous one's decision instead of drifting with the stream.
func (w *Worker) Reseed(seed int64) { w.rng.Seed(seed) }

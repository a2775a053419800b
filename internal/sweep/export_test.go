package sweep

// ChunkSize exposes the engine's dispatch chunk size to the external
// tests, which size a grid cell beyond it.
const ChunkSize = chunkSize

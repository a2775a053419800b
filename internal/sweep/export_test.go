package sweep

// ChunkSize exposes the engine's dispatch chunk size to the external
// tests, which size a grid cell beyond it.
const ChunkSize = chunkSize

// ShapeCount reports how many layer shapes the engine has priced.
func (e *Engine) ShapeCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.shapes)
}

package stream

import "jarvis/internal/operator"

// Operators exposes the engine's operator instances to the external
// test package (Pipeline has the accessor already).
func (e *SPEngine) Operators() []operator.Operator { return e.ops }

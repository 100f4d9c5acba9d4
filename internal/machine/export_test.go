package machine

import "repro/internal/cache"

// Directory exposes the machine's directory to the external tests.
func (m *Machine) Directory() *cache.Directory { return m.dir }

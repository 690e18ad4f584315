package server

import rtmetrics "runtime/metrics"

// heapFigures reads the daemon's heap in use (bytes in in-use spans, as
// runtime.MemStats.HeapInuse counts them) and the heap size at which the
// next collection starts, without stopping the world.
func heapFigures() (inuse, goal uint64) {
	s := []rtmetrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
		{Name: "/gc/heap/goal:bytes"},
	}
	rtmetrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64(), s[2].Value.Uint64()
}

package main

import (
	"runtime"
	"runtime/metrics"
)

// heapLiveBytes collects garbage and returns the heap bytes still live.
func heapLiveBytes() uint64 {
	runtime.GC()
	return heapGCLiveBytes()
}

// heapGCLiveBytes is the heap the last garbage collection found live. It
// moves only at collections, so a peak over it is not inflated by garbage
// the collector has not yet reached.
func heapGCLiveBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

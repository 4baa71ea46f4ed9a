//go:build !race

package server

// heapJobLayers is TestJobHeapIsBounded's depth axis: 1–500 layers
// make a 100,000-point job.
const heapJobLayers = 500

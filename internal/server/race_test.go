//go:build race

package server

// heapJobLayers is TestJobHeapIsBounded's depth axis under the race
// detector, which slows every point by an order of magnitude: 1–50
// layers make a 10,000-point job.
const heapJobLayers = 50

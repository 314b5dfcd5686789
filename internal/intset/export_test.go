package intset

// RefIntersectSize lends the map-based reference to the external tests.
var RefIntersectSize = refIntersectSize

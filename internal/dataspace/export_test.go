package dataspace

// CheckSlab is checkSlab for the package's external tests.
var CheckSlab = checkSlab

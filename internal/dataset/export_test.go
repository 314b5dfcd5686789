package dataset

// CleanByString exposes the string-keyed reference Clean to the external
// tests, which may import datagen.
var CleanByString = cleanByString

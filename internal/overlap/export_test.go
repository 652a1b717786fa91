package overlap

// FactsMatch exposes factsMatch to the external tests.
var FactsMatch = factsMatch

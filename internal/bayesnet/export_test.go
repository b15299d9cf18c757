package bayesnet

// Test-only exports for the external bayesnet_test package, which can
// import the dataset generators (they import bayesnet).
var (
	ReferencePosterior = referencePosterior
	RandomNetwork      = randomNetwork
)

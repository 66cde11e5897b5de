package hybrid

// StepsDiff exposes stepsDiff to the external test package.
var StepsDiff = stepsDiff

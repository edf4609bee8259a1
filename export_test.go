package apclassifier

// RuleDeltaProgram exposes the fixed-seed single-rule delta generator to
// the external benchmark package.
var RuleDeltaProgram = ruleDeltaProgram

//go:build apdebug

package unreached

func debugHooks() {
	debugOnly()
	debugKept()
}

package core

import (
	"fmt"
	"os"
	"strings"

	"devigo/internal/bytecode"
	"devigo/internal/field"
	"devigo/internal/native"
	"devigo/internal/runtime"
	"devigo/internal/symbolic"
)

// Execution engines. Each exists for a reason; all three produce
// bit-identical results, which the differential and fuzz tests enforce.
// The bytecode and native engines share one compiler (package bytecode)
// and one executor (package native); the interpreter shares only the
// storage binding and tile scheduler of package runtime.
const (
	// EngineBytecode runs the compiled register program unfused, one VM
	// sweep per row: the default engine, and the reference the native
	// engine's fused chains are compared against.
	EngineBytecode = "bytecode"
	// EngineInterpreter walks a per-point stack program from its own
	// compiler (package runtime): the independent oracle.
	EngineInterpreter = "interpreter"
	// EngineNative runs the same program lowered to fused bulk-row SIMD
	// chains (package native): the production executor.
	EngineNative = "native"
)

// EngineEnvVar overrides the default engine when Options.Engine is unset.
const EngineEnvVar = "DEVIGO_ENGINE"

// EngineNames lists the canonical engine names accepted by
// Options.Engine and $DEVIGO_ENGINE ("vm" and "interp" are aliases).
func EngineNames() []string { return []string{EngineBytecode, EngineInterpreter, EngineNative} }

// resolveEngine picks the execution engine: explicit Options.Engine wins,
// then the DEVIGO_ENGINE environment variable, then the bytecode default.
// A value outside the vocabulary is a configuration error naming the bad
// value, where it came from, and what is accepted — matching the halo
// package's ParseMode style.
func resolveEngine(requested string) (string, error) {
	e := strings.ToLower(strings.TrimSpace(requested))
	source := "Options.Engine"
	if e == "" {
		e = strings.ToLower(strings.TrimSpace(os.Getenv(EngineEnvVar)))
		source = "$" + EngineEnvVar
	}
	switch e {
	case "":
		return EngineBytecode, nil
	case EngineBytecode, "vm":
		return EngineBytecode, nil
	case EngineInterpreter, "interp":
		return EngineInterpreter, nil
	case EngineNative:
		return EngineNative, nil
	}
	return "", fmt.Errorf("core: unknown engine %q in %s (valid: %s; aliases: vm, interp)",
		e, source, strings.Join(EngineNames(), ", "))
}

// compileStep compiles one optimized loop nest with the selected engine.
func compileStep(engine string, assigns []symbolic.Assignment, eqs []symbolic.Eq,
	radius []int, fields map[string]*field.Function) (runtime.ExecKernel, error) {
	if engine == EngineInterpreter {
		return runtime.CompileNest(assigns, eqs, radius, fields)
	}
	bk, err := bytecode.CompileNest(assigns, eqs, radius, fields)
	if err != nil {
		return nil, err
	}
	if engine == EngineNative {
		return native.Wrap(bk), nil
	}
	return native.WrapVM(bk), nil
}

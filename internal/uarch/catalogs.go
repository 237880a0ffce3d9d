package uarch

import (
	"bytes"
	"embed"
	"path"
	"strings"
)

// The built-in catalogs: an Intel Skylake-like x86_64 core and an IBM
// Power9-like ppc64 core, as JSON specs registered under their file base
// names. Event names follow the vendor naming schemes (perfmon / POWER9 PMU
// guide) closely enough to be recognizable, but the catalogs model
// idealized cores: every invariant they declare holds exactly in the
// simulated ground truth produced by internal/measure.
//
//go:embed catalogs/*.json
var builtins embed.FS

func init() {
	files, err := builtins.ReadDir("catalogs")
	if err != nil {
		panic(err)
	}
	for _, f := range files {
		data, err := builtins.ReadFile(path.Join("catalogs", f.Name()))
		if err != nil {
			panic(err)
		}
		spec, err := LoadSpec(bytes.NewReader(data))
		if err != nil {
			panic(err)
		}
		MustRegister(strings.TrimSuffix(f.Name(), ".json"), spec)
	}
}

// Skylake returns a fresh copy of the built-in skylake catalog: 3 fixed
// counters, 4 programmable counters with placement constraints, and 2
// off-core response MSRs.
func Skylake() *Catalog { return builtin("skylake") }

// Power9 returns a fresh copy of the built-in power9 catalog: 2 fixed
// counters (PMC5, PMC6) and 4 programmable counters, no auxiliary MSRs.
func Power9() *Catalog { return builtin("power9") }

// Catalogs returns every built-in catalog, in a stable order.
func Catalogs() []*Catalog { return []*Catalog{Skylake(), Power9()} }

func builtin(name string) *Catalog {
	spec, _ := Lookup(name)
	return spec.MustCatalog()
}

// Package uarch defines the microarchitectural knowledge base that drives
// BayesPerf: per-CPU event catalogs (fixed and programmable events together
// with their counter-placement constraints), the library of algebraic
// invariants between events (§3–§4 of the paper: "microarchitectural
// invariants … can be composed, encoded as statistical relationships"), and
// the derived-event formulas evaluated in §6.2.
//
// The catalogs model an Intel Skylake-like x86_64 core and an IBM
// Power9-like ppc64 core. Event semantics are grounded in a common set of
// machine primitives (see internal/measure's workload generator), so the
// invariants declared here hold exactly in the simulated ground truth, just
// as the vendor-documented relations hold on real silicon.
package uarch

import (
	"fmt"
	"math"
	"math/bits"
)

// EventID indexes an event within one catalog. IDs are dense from 0.
type EventID int

// InvalidEvent is the sentinel for "no event".
const InvalidEvent EventID = -1

// Event describes one countable architectural or microarchitectural event.
type Event struct {
	ID    EventID
	Name  string
	Fixed bool // counted on a dedicated fixed counter, never multiplexed
	// FixedIndex is the fixed-counter slot for fixed events (0-based).
	FixedIndex int
	// CounterMask is the bitmask of programmable counters able to count the
	// event (bit i set ⇒ counter c_i can host it). Ignored for fixed events.
	// This models constraints like "L1D_PEND_MISS.PENDING can be only
	// counted on the third HPC on Haswell/Broadwell systems" (§4).
	CounterMask uint
	// NeedsMSR marks off-core-response style events that consume one of the
	// PMU's auxiliary MSRs in addition to a counter ("an Intel off-core
	// response event requires one HPC and one MSR register", §4).
	NeedsMSR bool
	// Model grounds the event in the shared machine primitives of the
	// simulated core (internal/measure): the event's value is the linear
	// combination Σ Model[p]·primitive(p). Every catalog is a JSON spec, so
	// its ground-truth semantics live here, which is what lets any catalog
	// run end to end through the simulator.
	Model map[string]float64
	Desc  string
}

// Term is one addend of a linear invariant: Coeff · value(Event).
type Term struct {
	Event EventID
	Coeff float64
}

// Relation is a linear microarchitectural invariant Σᵢ Coeffᵢ·eᵢ ≈ 0.
// RelTol expresses how exactly it holds as a fraction of the relation's
// magnitude; it becomes the factor noise scale in the factor graph.
type Relation struct {
	Name   string
	Terms  []Term
	RelTol float64
	Desc   string
}

// Residual evaluates Σᵢ Coeffᵢ·vals[eᵢ] for the relation.
func (r Relation) Residual(vals []float64) float64 {
	var s float64
	for _, t := range r.Terms {
		s += t.Coeff * vals[t.Event]
	}
	return s
}

// Magnitude returns the scale of the relation at the given values:
// Σᵢ |Coeffᵢ·vals[eᵢ]| / 2 (half the gross flow, so that an exact A=B+C
// relation has magnitude ≈ A).
func (r Relation) Magnitude(vals []float64) float64 {
	var s float64
	for _, t := range r.Terms {
		s += math.Abs(t.Coeff * vals[t.Event])
	}
	return s / 2
}

// Expression kinds a Derived formula is declared as. A catalog is data (see
// Spec), and every derived event is one of these.
const (
	// KindRatio is Scale·in[0]/in[1] with safeDiv's zero-denominator guard
	// and the analytic gradient (k/b, −k·a/b²).
	KindRatio = "ratio"
	// KindLinearRatio is ΣNum[i]·in[i] / ΣDen[i]·in[i] (safeDiv-guarded).
	// Its gradient is a central finite difference.
	KindLinearRatio = "linear_ratio"
)

// Derived is a derived event (§2 "Errors in Derived Events"): a mathematical
// combination of individual HPC values, e.g. IPC or Backend_Bound. The
// formula is plain data: Kind selects the expression, Scale parameterizes
// KindRatio, and Num/Den weight KindLinearRatio's inputs.
type Derived struct {
	Name     string
	Inputs   []EventID
	Kind     string
	Scale    float64
	Num, Den []float64
	Desc     string
}

// Eval computes the derived value from the input event values, in Inputs
// order.
//
//bayesperf:hotpath
func (d *Derived) Eval(in []float64) float64 {
	if d.Kind == KindRatio {
		return safeDiv(d.Scale*in[0], in[1])
	}
	var n, den float64
	for i := range in {
		n += d.Num[i] * in[i]
		den += d.Den[i] * in[i]
	}
	return safeDiv(n, den)
}

// GradientInto writes ∂Eval/∂inᵢ at in (Inputs order) into dst[:len(in)]
// and returns that slice. KindRatio is analytic, with the guard's flat
// (0, 0) at a zero denominator, which carries no first-order information.
// KindLinearRatio is a central finite difference with a per-coordinate step
// h = ε·max(|inᵢ|, 1), exact for these linear-fractional formulas up to
// O(h²): each coordinate of in is perturbed in place and restored before
// the next, so in must not alias dst or be read concurrently.
//
//bayesperf:hotpath
func (d *Derived) GradientInto(dst, in []float64) []float64 {
	dst = dst[:len(in)]
	if d.Kind == KindRatio {
		a, b, k := in[0], in[1], d.Scale
		if b == 0 { //bayesvet:bitwise guard against exact-zero denominator
			dst[0], dst[1] = 0, 0
			return dst
		}
		dst[0], dst[1] = k/b, -k*a/(b*b)
		return dst
	}
	const eps = 1e-6
	for i, orig := range in {
		h := eps * math.Max(math.Abs(orig), 1)
		in[i] = orig + h
		fp := d.Eval(in)
		in[i] = orig - h
		fm := d.Eval(in)
		in[i] = orig
		dst[i] = (fp - fm) / (2 * h)
	}
	return dst
}

// PropagateStdCov applies the first-order delta method at the point in: the
// std of Eval given per-input stds std and, through corr(i, j), the
// posterior correlation of inputs i and j (positions in Inputs order), as
// extracted per relation clique by the factor graph. A nil corr, or one
// returning 0 for every pair, treats the inputs as independent. grad is
// caller scratch of at least len(in) elements for the gradient, and in is
// perturbed and restored as in GradientInto. Non-finite gradient components
// — e.g. a finite difference straddling safeDiv's zero-denominator guard —
// contribute nothing instead of poisoning the result. Correlations are
// clamped to [−1, 1] and the accumulated variance floored at 0, so an
// inconsistent covariance model can never yield a NaN std.
//
//bayesperf:hotpath
func (d *Derived) PropagateStdCov(in, std, grad []float64, corr func(i, j int) float64) float64 {
	g := d.GradientInto(grad, in)
	var v float64
	for i, gi := range g {
		if math.IsNaN(gi) || math.IsInf(gi, 0) {
			continue
		}
		t := gi * std[i]
		v += t * t
	}
	if corr != nil {
		for i, gi := range g {
			if math.IsNaN(gi) || math.IsInf(gi, 0) {
				continue
			}
			for j := i + 1; j < len(g); j++ {
				gj := g[j]
				if math.IsNaN(gj) || math.IsInf(gj, 0) {
					continue
				}
				rho := corr(i, j)
				if rho == 0 || math.IsNaN(rho) { //bayesvet:bitwise corrFn returns exact 0 for untracked pairs; skip the term
					continue
				}
				if rho > 1 {
					rho = 1
				} else if rho < -1 {
					rho = -1
				}
				v += 2 * (gi * std[i]) * (gj * std[j]) * rho
			}
		}
	}
	if v < 0 {
		v = 0 // clamped correlations keep this near-impossible for k=2; guard k>2
	}
	return math.Sqrt(v)
}

// Catalog is the complete event model for one CPU architecture.
type Catalog struct {
	Arch     string // e.g. "x86_64-skylake"
	NumFixed int    // fixed HPCs (n_f in the paper's formalism)
	NumProg  int    // programmable HPCs (n_p)
	NumMSR   int    // auxiliary off-core-response MSRs available
	Events   []Event
	Rels     []Relation
	Derived  []Derived

	byName map[string]EventID
}

// Lookup returns the EventID for name, or InvalidEvent if unknown.
func (c *Catalog) Lookup(name string) EventID {
	if id, ok := c.byName[name]; ok {
		return id
	}
	return InvalidEvent
}

// MustEvent returns the EventID for name, panicking if unknown. It is used
// at test time only.
func (c *Catalog) MustEvent(name string) EventID {
	id := c.Lookup(name)
	if id == InvalidEvent {
		panic(fmt.Sprintf("uarch: unknown event %q in %s", name, c.Arch))
	}
	return id
}

// Event returns the event descriptor for id.
func (c *Catalog) Event(id EventID) Event { return c.Events[id] }

// NumEvents returns the number of events in the catalog (n_e).
func (c *Catalog) NumEvents() int { return len(c.Events) }

// FixedEvents returns the IDs of all fixed-counter events.
func (c *Catalog) FixedEvents() []EventID {
	var out []EventID
	for _, e := range c.Events {
		if e.Fixed {
			out = append(out, e.ID)
		}
	}
	return out
}

// ProgrammableEvents returns the IDs of all programmable events.
func (c *Catalog) ProgrammableEvents() []EventID {
	var out []EventID
	for _, e := range c.Events {
		if !e.Fixed {
			out = append(out, e.ID)
		}
	}
	return out
}

// RelationsOf returns the indices (into Rels) of every relation mentioning
// the event.
func (c *Catalog) RelationsOf(id EventID) []int {
	var out []int
	for i, r := range c.Rels {
		for _, t := range r.Terms {
			if t.Event == id {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

// DerivedByName returns the derived-event definition, or nil.
func (c *Catalog) DerivedByName(name string) *Derived {
	for i := range c.Derived {
		if c.Derived[i].Name == name {
			return &c.Derived[i]
		}
	}
	return nil
}

// Validate checks internal consistency of the catalog. Spec.Catalog calls
// it on every catalog it builds.
func (c *Catalog) Validate() error {
	if c.NumFixed < 0 || c.NumProg <= 0 {
		return fmt.Errorf("uarch: %s: need at least one programmable counter", c.Arch)
	}
	if len(c.Events) == 0 {
		return fmt.Errorf("uarch: %s: catalog has no events", c.Arch)
	}
	// CounterMask is a uint, so a catalog can address at most UintSize−1
	// programmable counters; beyond that the full-mask shift below would
	// overflow and mask validation would silently accept garbage.
	if c.NumProg > bits.UintSize-1 {
		return fmt.Errorf("uarch: %s: NumProg %d exceeds the %d counters addressable by a counter mask",
			c.Arch, c.NumProg, bits.UintSize-1)
	}
	fullMask := uint(1)<<uint(c.NumProg) - 1
	fixedSeen := make(map[int]string)
	for _, e := range c.Events {
		if e.Fixed {
			if e.FixedIndex < 0 || e.FixedIndex >= c.NumFixed {
				return fmt.Errorf("uarch: %s: %s fixed slot %d out of range", c.Arch, e.Name, e.FixedIndex)
			}
			if prev, dup := fixedSeen[e.FixedIndex]; dup {
				return fmt.Errorf("uarch: %s: fixed slot %d claimed by both %s and %s", c.Arch, e.FixedIndex, prev, e.Name)
			}
			fixedSeen[e.FixedIndex] = e.Name
			continue
		}
		if e.CounterMask == 0 {
			return fmt.Errorf("uarch: %s: %s has empty counter mask", c.Arch, e.Name)
		}
		if e.NeedsMSR && c.NumMSR < 1 {
			return fmt.Errorf("uarch: %s: %s needs an MSR but catalog has none", c.Arch, e.Name)
		}
		if e.CounterMask&^fullMask != 0 {
			return fmt.Errorf("uarch: %s: %s mask %#x exceeds %d counters", c.Arch, e.Name, e.CounterMask, c.NumProg)
		}
	}
	for _, r := range c.Rels {
		if len(r.Terms) < 2 {
			return fmt.Errorf("uarch: %s: relation %s has <2 terms", c.Arch, r.Name)
		}
		if r.RelTol <= 0 {
			return fmt.Errorf("uarch: %s: relation %s has non-positive tolerance", c.Arch, r.Name)
		}
		for _, t := range r.Terms {
			if t.Event < 0 || int(t.Event) >= len(c.Events) {
				return fmt.Errorf("uarch: %s: relation %s references unknown event %d", c.Arch, r.Name, t.Event)
			}
			if t.Coeff == 0 { //bayesvet:bitwise validation rejects an exactly-zero coefficient, which the spec assigns
				return fmt.Errorf("uarch: %s: relation %s has zero coefficient", c.Arch, r.Name)
			}
		}
	}
	for _, d := range c.Derived {
		for _, in := range d.Inputs {
			if in < 0 || int(in) >= len(c.Events) {
				return fmt.Errorf("uarch: %s: derived %s references unknown event %d", c.Arch, d.Name, in)
			}
		}
		switch d.Kind {
		case KindRatio:
			if len(d.Inputs) != 2 {
				return fmt.Errorf("uarch: %s: ratio derived %s needs 2 inputs, has %d", c.Arch, d.Name, len(d.Inputs))
			}
			if d.Scale == 0 { //bayesvet:bitwise validation rejects an exactly-zero scale, which the spec assigns
				return fmt.Errorf("uarch: %s: ratio derived %s has zero scale", c.Arch, d.Name)
			}
		case KindLinearRatio:
			if len(d.Num) != len(d.Inputs) || len(d.Den) != len(d.Inputs) {
				return fmt.Errorf("uarch: %s: linear_ratio derived %s coefficient lengths %d/%d do not match %d inputs",
					c.Arch, d.Name, len(d.Num), len(d.Den), len(d.Inputs))
			}
		default:
			return fmt.Errorf("uarch: %s: derived %s has unknown kind %q", c.Arch, d.Name, d.Kind)
		}
	}
	return nil
}

// EvalDerived computes a derived event from a full event-value vector
// (indexed by EventID).
func (c *Catalog) EvalDerived(d *Derived, vals []float64) float64 {
	in := make([]float64, len(d.Inputs))
	for i, id := range d.Inputs {
		in[i] = vals[id]
	}
	return d.Eval(in)
}

// PosteriorFrom computes the derived event's (mean, std) from full
// per-event posterior mean and std vectors (indexed by EventID): the value
// at the posterior mean and the delta-method std of PropagateStdCov, with
// corr indexed by input position (nil for independent inputs).
func (d *Derived) PosteriorFrom(mean, std []float64, corr func(i, j int) float64) (dMean, dStd float64) {
	k := len(d.Inputs)
	buf := make([]float64, 3*k)
	in, sd := buf[:k], buf[k:2*k]
	for i, id := range d.Inputs {
		in[i] = mean[id]
		sd[i] = std[id]
	}
	return d.Eval(in), d.PropagateStdCov(in, sd, buf[2*k:], corr)
}

func safeDiv(a, b float64) float64 {
	if b == 0 { //bayesvet:bitwise guard against exact-zero denominator
		return 0
	}
	return a / b
}

package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro"
	"repro/internal/core"
	"repro/internal/service"
)

// input is one generated repair job. Closed-loop workloads (chain,
// byzantine-cost) run def through the library; the daemon workload submits
// spec to the service.
type input struct {
	// id names the job's exact input (jobs with equal ids are identical
	// runs); family keys its expected state counts in expected.json.
	id     string
	family string
	def    *repro.Def
	cost   *repro.CostModel
	// witnesses is the number of recovery demonstrations requested.
	witnesses int

	spec     service.Spec
	resubmit bool // an exact resubmission of an earlier spec (a cache read)
}

// balanced returns blocks of n seeded permutations of 0..n-1: every block
// holds each choice once, so the job mix is the same for every seed and
// only the order and the per-job parameters vary.
func balanced(r *rand.Rand, n, blocks int) []int {
	out := make([]int, 0, n*blocks)
	for b := 0; b < blocks; b++ {
		out = append(out, r.Perm(n)...)
	}
	return out
}

// chainDeck is the chain workload's job cycle: stabilizing chains sc(n)
// with n drawn from 11–13, each size once per block of three.
func chainDeck(seed int64) ([]*input, error) {
	r := rand.New(rand.NewSource(seed))
	var deck []*input
	for _, k := range balanced(r, 3, 4) {
		n := 11 + k
		def, err := core.CaseStudy("sc", n)
		if err != nil {
			return nil, err
		}
		fam := fmt.Sprintf("sc/%d", n)
		deck = append(deck, &input{id: fam, family: fam, def: def})
	}
	return deck, nil
}

// byzInstances are the byzantine-cost workload's instances.
var byzInstances = []struct {
	name string
	n    int
}{{"ba", 5}, {"ba", 6}, {"ba", 7}, {"bafs", 3}, {"bafs", 4}}

// byzBlocks is the number of blocks in the byzantine-cost job cycle; every
// distinct job also gets one cost-blind reference run after the timed
// window, so this trades check time against weight variety.
const byzBlocks = 12

// byzDeck is the byzantine-cost workload's job cycle: each instance once per
// block, each job with its own per-action weights drawn from 1–16 (the
// default weight of synthesized transitions stays 1), three witnesses.
func byzDeck(seed int64) ([]*input, error) {
	r := rand.New(rand.NewSource(seed))
	var deck []*input
	for i, k := range balanced(r, len(byzInstances), byzBlocks) {
		inst := byzInstances[k]
		def, err := core.CaseStudy(inst.name, inst.n)
		if err != nil {
			return nil, err
		}
		cm := &repro.CostModel{Actions: map[string]int64{}}
		for _, p := range def.Processes {
			for _, a := range p.Actions {
				cm.Actions[p.Name+"."+a.Name] = int64(1 + r.Intn(16))
			}
		}
		fam := fmt.Sprintf("%s/%d", inst.name, inst.n)
		deck = append(deck, &input{id: fmt.Sprintf("%s#%d", fam, i), family: fam, def: def, cost: cm, witnesses: 3})
	}
	return deck, nil
}

// daemonBlock is the composition of every block of eight daemon jobs: three
// inline .ftr models, three built-in cases, and two exact resubmissions.
var daemonBlock = []string{"traffic", "minichain/3", "minichain/4", "tmr", "ring/3", "bafs/2", "resubmit", "resubmit"}

// daemonBudgetBase is the node budget carried by built-in daemon jobs. It is
// far above anything these cases allocate, so it never binds; the budget is
// part of the service's content address, so giving each job its own value
// makes each a fresh synthesis instead of a cache read.
const daemonBudgetBase = 1 << 24

// daemonGen produces the daemon workload's job stream, one job at a time.
type daemonGen struct {
	seed   int64
	r      *rand.Rand
	order  []int
	next   int
	recent []*input // the latest misses, for resubmission
}

func newDaemonGen(seed int64) *daemonGen {
	return &daemonGen{seed: seed, r: rand.New(rand.NewSource(seed))}
}

// gen returns the next job of the stream.
func (g *daemonGen) gen() (*input, error) {
	if len(g.order) == 0 {
		g.order = g.r.Perm(len(daemonBlock))
	}
	kind := daemonBlock[g.order[0]]
	g.order = g.order[1:]
	i := g.next
	g.next++
	if kind == "resubmit" {
		if len(g.recent) == 0 {
			// Nothing to resubmit yet: the slot becomes a miss of its own.
			kind = "traffic"
		} else {
			orig := g.recent[g.r.Intn(len(g.recent))]
			return &input{id: fmt.Sprintf("%s#%d=%s", orig.family, i, orig.id), family: orig.family,
				spec: orig.spec, resubmit: true}, nil
		}
	}
	in, err := daemonJob(kind, fmt.Sprintf("s%d_j%d", g.seed, i), daemonBudgetBase+int64(i))
	if err != nil {
		return nil, err
	}
	in.id = fmt.Sprintf("%s#%d", kind, i)
	g.recent = append(g.recent, in)
	if len(g.recent) > 16 {
		g.recent = g.recent[1:]
	}
	return in, nil
}

// daemonJob builds one daemon job of the given family: inline models get
// the program name tag, built-in cases the node budget.
func daemonJob(family, tag string, budget int64) (*input, error) {
	in := &input{family: family}
	switch family {
	case "traffic":
		in.spec = service.Spec{Model: trafficModel("traffic_" + tag)}
	case "minichain/3":
		in.spec = service.Spec{Model: minichainModel("minichain_"+tag, 3)}
	case "minichain/4":
		in.spec = service.Spec{Model: minichainModel("minichain_"+tag, 4)}
	case "tmr":
		in.spec = service.Spec{Case: "tmr", NodeBudget: budget}
	case "ring/3":
		in.spec = service.Spec{Case: "ring", N: 3, NodeBudget: budget}
	case "bafs/2":
		in.spec = service.Spec{Case: "bafs", N: 2, NodeBudget: budget}
	default:
		return nil, fmt.Errorf("unknown daemon job family %q", family)
	}
	return in, nil
}

// trafficModel is a pedestrian crossing whose lamp can glitch into an
// illegal third state (the family of examples/models/traffic.ftr).
func trafficModel(name string) string {
	return "program " + name + `
var light : 0..2
var btn   : bool

process controller
  read  light btn
  write light
  action go   : light = 0 & btn = 1 -> light := 1
  action stop : light = 1           -> light := 0

fault glitch : light < 2 -> light := 2
fault press  : true      -> btn := 0 | 1

invariant light < 2
`
}

// minichainModel is a stabilizing chain of k three-valued cells written as
// .ftr text: cell i copies cell i-1, and faults corrupt any cell while
// toggling a parity bit no process reads.
func minichainModel(name string, k int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s\nvar fc : bool\n", name)
	for i := 0; i < k; i++ {
		fmt.Fprintf(&b, "var x.%d : 0..2\n", i)
	}
	for i := 1; i < k; i++ {
		fmt.Fprintf(&b, "process p%d\n  read x.%d x.%d\n  write x.%d\n", i, i-1, i, i)
	}
	for i := 0; i < k; i++ {
		fmt.Fprintf(&b, "fault hit%da : fc = 0 -> x.%d := 0 | 1 | 2, fc := 1\n", i, i)
		fmt.Fprintf(&b, "fault hit%db : fc = 1 -> x.%d := 0 | 1 | 2, fc := 0\n", i, i)
	}
	for i := 1; i < k; i++ {
		fmt.Fprintf(&b, "invariant x.%d = x.%d\n", i, i-1)
		fmt.Fprintf(&b, "badtrans unchanged(fc) & changed(x.%d) & !(x.%d' = x.%d)\n", i, i, i-1)
	}
	return b.String()
}

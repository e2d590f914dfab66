package fmtm

import (
	"fmt"

	"repro/internal/atm/flexible"
	"repro/internal/expr"
	"repro/internal/model"
)

// resultType names the output structure of a generated flexible process:
// Result = 0 when some execution path committed, 1 when a terminal
// subtransaction aborted with no alternative left, -1 when execution died
// upstream (clean abort before any terminal activity ran). The name is
// prefixed with the process name so several generated processes can share
// one FDL file.
func resultType(spec *flexible.Spec) string { return spec.Name + "_Result" }

// TranslateFlexible converts a flexible transaction into a workflow
// process using the construction of §4.2 / Figure 4 (rules 1–7):
//
//  1. every subtransaction and compensating subtransaction becomes an
//     activity;
//  2. path order becomes control connectors;
//  3. pivots branch on "RC = 0" vs "RC <> 0";
//  4. retriable activities carry the exit condition "RC = 0" so they
//     repeat until the subtransaction commits;
//  5. maximal runs of compensatable subtransactions between decision
//     points collapse into a block whose output records per-activity
//     states;
//  6. each such block gets a mirrored compensation block (NOP start
//     activity + reversed connectors, exactly as in the saga
//     construction);
//  7. switching execution paths routes the failure connector through the
//     compensation blocks of everything committed since the divergence
//     point and on to the next alternative; dead path elimination
//     silences the abandoned branch.
func TranslateFlexible(spec *flexible.Spec) (*model.Process, error) {
	trie, err := flexible.BuildTrie(spec)
	if err != nil {
		return nil, err
	}
	tr := &flexTranslator{
		spec: spec, trie: trie,
		p:          model.NewProcess(spec.Name),
		elemOfNode: make(map[*flexible.Node]*felement),
		usedNames:  make(map[string]bool),
		edgeSeen:   make(map[[2]string]bool),
	}
	tr.p.Description = fmt.Sprintf("flexible transaction %s compiled by Exotica/FMTM (Figure 4 construction)", spec.Name)
	// Reserve the subtransaction and compensation names so generated block
	// names never collide with them.
	for _, sub := range spec.Subs {
		tr.usedNames[sub.Name] = true
		if sub.Compensation != "" {
			tr.usedNames[sub.Compensation] = true
		}
	}
	if err := tr.p.Types.Register(&model.StructType{Name: resultType(spec), Members: []model.Member{
		{Name: "Result", Basic: model.Long, Default: expr.Int(-1)},
	}}); err != nil {
		return nil, err
	}
	tr.p.OutputType = resultType(spec)

	// Rule 5: partition the trie into elements (compensatable segments and
	// standalone activities), then materialize and wire them.
	for _, entry := range trie.Root.Children {
		tr.partition(entry)
	}
	for _, el := range tr.elems {
		if err := tr.materialize(el); err != nil {
			return nil, err
		}
	}
	for _, el := range tr.elems {
		if err := tr.wire(el); err != nil {
			return nil, err
		}
	}
	// Prune unreachable alternatives: a rescue path that no failure can
	// route to (e.g. an alternative shadowed by an all-retriable preferred
	// continuation) has no incoming connector, and in the workflow model an
	// activity without incoming connectors is a *start* activity — it would
	// run unconditionally. Keep only the activities reachable from the
	// entry element.
	tr.prune(tr.elemOfNode[trie.Root.Children[0]].name)
	// Alternatives and shared compensation blocks have several incoming
	// connectors of which at most one fires; they need OR start conditions.
	incoming := map[string]int{}
	for _, c := range tr.p.Control {
		incoming[c.To]++
	}
	for _, a := range tr.p.Activities {
		if incoming[a.Name] > 1 {
			a.Join = model.JoinOr
		}
	}
	if err := tr.p.Validate(nil); err != nil {
		return nil, fmt.Errorf("fmtm: generated flexible process invalid: %w", err)
	}
	return tr.p, nil
}

// felement is one unit of the generated root graph: a forward block over a
// compensatable segment (with a mirrored compensation block) or a single
// pivot/retriable activity.
type felement struct {
	nodes      []*flexible.Node
	isBlock    bool
	name       string
	compName   string // compensation block name; "" for activities
	statesType string // block state structure; "" for activities
	failable   bool
}

func (el *felement) successCond() expr.Node {
	if el.isBlock {
		return expr.MustParse(fmt.Sprintf("%s = 0", stateMember(len(el.nodes))))
	}
	return expr.MustParse("RC = 0")
}

func (el *felement) failCond() expr.Node {
	if el.isBlock {
		return expr.MustParse(fmt.Sprintf("%s <> 0", stateMember(len(el.nodes))))
	}
	return expr.MustParse("RC <> 0")
}

// successPath returns the member of the element's output container that
// signals commit (for the Result mapping of terminal elements).
func (el *felement) successPath() string {
	if el.isBlock {
		return stateMember(len(el.nodes))
	}
	return model.RCMember
}

type flexTranslator struct {
	spec       *flexible.Spec
	trie       *flexible.Trie
	p          *model.Process
	elems      []*felement
	elemOfNode map[*flexible.Node]*felement
	usedNames  map[string]bool
	edgeSeen   map[[2]string]bool
	blockSeq   int
}

func (tr *flexTranslator) uniqueName(base string) string {
	name := base
	for i := 2; tr.usedNames[name]; i++ {
		name = fmt.Sprintf("%s_%d", base, i)
	}
	tr.usedNames[name] = true
	return name
}

// partition walks the trie from entry, grouping maximal compensatable
// single-child runs into block elements and every other node into an
// activity element, recursing at divergences.
func (tr *flexTranslator) partition(entry *flexible.Node) {
	cur := entry
	for cur != nil {
		sub := tr.spec.Sub(cur.Sub)
		el := &felement{nodes: []*flexible.Node{cur}}
		if sub.Compensatable {
			el.isBlock = true
			for len(cur.Children) == 1 && tr.spec.Sub(cur.Children[0].Sub).Compensatable {
				cur = cur.Children[0]
				el.nodes = append(el.nodes, cur)
			}
		}
		for _, n := range el.nodes {
			if !tr.spec.Sub(n.Sub).Retriable {
				el.failable = true
			}
			tr.elemOfNode[n] = el
		}
		tr.elems = append(tr.elems, el)
		switch len(cur.Children) {
		case 0:
			return
		case 1:
			cur = cur.Children[0]
		default:
			for _, c := range cur.Children {
				tr.partition(c)
			}
			return
		}
	}
}

// materialize creates the element's activities (and blocks) in the root
// graph.
func (tr *flexTranslator) materialize(el *felement) error {
	if !el.isBlock {
		n := el.nodes[0]
		sub := tr.spec.Sub(n.Sub)
		el.name = tr.uniqueNodeName(n)
		a := &model.Activity{Name: el.name, Kind: model.KindProgram, Program: n.Sub}
		if sub.Retriable {
			a.Exit = expr.MustParse("RC = 0") // rule 4
			a.Retry = retriableRetry
		}
		tr.p.Activities = append(tr.p.Activities, a)
		tr.addResultMapping(el)
		return nil
	}

	tr.blockSeq++
	el.name = tr.uniqueName(fmt.Sprintf("Blk%d", tr.blockSeq))
	el.compName = tr.uniqueName(el.name + "_comp")
	el.statesType = tr.uniqueName(tr.spec.Name + "_" + el.name + "_States")

	m := len(el.nodes)
	members := make([]model.Member, m)
	for i := range members {
		members[i] = model.Member{Name: stateMember(i + 1), Basic: model.Long, Default: expr.Int(-1)}
	}
	if err := tr.p.Types.Register(&model.StructType{Name: el.statesType, Members: members}); err != nil {
		return err
	}

	// Forward block: the saga forward construction over the segment.
	fwd := &model.Graph{OutputType: el.statesType}
	for i, node := range el.nodes {
		a := &model.Activity{Name: node.Sub, Kind: model.KindProgram, Program: node.Sub}
		if tr.spec.Sub(node.Sub).Retriable {
			a.Exit = expr.MustParse("RC = 0")
			a.Retry = retriableRetry
		}
		fwd.Activities = append(fwd.Activities, a)
		fwd.Data = append(fwd.Data, &model.DataConnector{
			From: node.Sub, To: model.ScopeRef,
			Maps: []model.DataMap{{FromPath: model.RCMember, ToPath: stateMember(i + 1)}},
		})
		if i > 0 {
			fwd.Control = append(fwd.Control, &model.ControlConnector{
				From: el.nodes[i-1].Sub, To: node.Sub, Condition: expr.MustParse("RC = 0"),
			})
		}
	}

	// Compensation block: rule 6, mirroring the saga compensation block.
	comp := &model.Graph{InputType: el.statesType}
	comp.Activities = append(comp.Activities, &model.Activity{
		Name: nopActivityName, Kind: model.KindProgram, Program: CopyName,
		InputType: el.statesType, OutputType: el.statesType,
	})
	comp.Data = append(comp.Data, &model.DataConnector{
		From: model.ScopeRef, To: nopActivityName, Maps: stateMaps(m),
	})
	for i, node := range el.nodes {
		compensation := tr.spec.Sub(node.Sub).Compensation
		comp.Activities = append(comp.Activities, &model.Activity{
			Name: compensation, Kind: model.KindProgram, Program: compensation,
			Exit:  expr.MustParse("RC = 0"),
			Retry: retriableRetry,
			Join:  model.JoinOr,
		})
		cond := fmt.Sprintf("%s = 0", stateMember(i+1))
		if i+1 < m {
			cond = fmt.Sprintf("%s = 0 AND %s <> 0", stateMember(i+1), stateMember(i+2))
		}
		comp.Control = append(comp.Control, &model.ControlConnector{
			From: nopActivityName, To: compensation, Condition: expr.MustParse(cond),
		})
		if i > 0 {
			comp.Control = append(comp.Control, &model.ControlConnector{
				From: compensation, To: tr.spec.Sub(el.nodes[i-1].Sub).Compensation,
			})
		}
	}

	tr.p.Activities = append(tr.p.Activities,
		&model.Activity{Name: el.name, Kind: model.KindBlock, Block: fwd, OutputType: el.statesType},
		&model.Activity{Name: el.compName, Kind: model.KindBlock, Block: comp, InputType: el.statesType},
	)
	// The compensation block reads the forward block's states.
	tr.p.Data = append(tr.p.Data, &model.DataConnector{
		From: el.name, To: el.compName, Maps: stateMaps(m),
	})
	tr.addResultMapping(el)
	return nil
}

// uniqueNodeName names a standalone activity after its subtransaction,
// suffixing the trie node id when the same subtransaction appears at
// several trie positions.
func (tr *flexTranslator) uniqueNodeName(n *flexible.Node) string {
	if !tr.usedNames[n.Sub+"\x00act"] {
		tr.usedNames[n.Sub+"\x00act"] = true
		return n.Sub
	}
	return tr.uniqueName(fmt.Sprintf("%s_n%d", n.Sub, n.ID))
}

// addResultMapping maps a terminal element's success indicator to the
// process output.
func (tr *flexTranslator) addResultMapping(el *felement) {
	last := el.nodes[len(el.nodes)-1]
	if len(last.Children) > 0 {
		return
	}
	tr.p.Data = append(tr.p.Data, &model.DataConnector{
		From: el.name, To: model.ScopeRef,
		Maps: []model.DataMap{{FromPath: el.successPath(), ToPath: "Result"}},
	})
}

// prune removes every activity not reachable from the entry activity over
// control connectors, together with the connectors that reference it.
func (tr *flexTranslator) prune(entry string) {
	reach := map[string]bool{entry: true}
	for changed := true; changed; {
		changed = false
		for _, c := range tr.p.Control {
			if reach[c.From] && !reach[c.To] {
				reach[c.To] = true
				changed = true
			}
		}
	}
	var acts []*model.Activity
	for _, a := range tr.p.Activities {
		if reach[a.Name] {
			acts = append(acts, a)
		}
	}
	tr.p.Activities = acts
	var ctrl []*model.ControlConnector
	for _, c := range tr.p.Control {
		if reach[c.From] && reach[c.To] {
			ctrl = append(ctrl, c)
		}
	}
	tr.p.Control = ctrl
	var data []*model.DataConnector
	for _, d := range tr.p.Data {
		if (d.From == model.ScopeRef || reach[d.From]) && (d.To == model.ScopeRef || reach[d.To]) {
			data = append(data, d)
		}
	}
	tr.p.Data = data
}

func (tr *flexTranslator) addEdge(from, to string, cond expr.Node) {
	key := [2]string{from, to}
	if tr.edgeSeen[key] {
		return
	}
	tr.edgeSeen[key] = true
	tr.p.Control = append(tr.p.Control, &model.ControlConnector{From: from, To: to, Condition: cond})
}

// wire adds the element's success edge and its failure route (rule 7).
func (tr *flexTranslator) wire(el *felement) error {
	last := el.nodes[len(el.nodes)-1]
	if len(last.Children) > 0 {
		succ := tr.elemOfNode[last.Children[0]]
		tr.addEdge(el.name, succ.name, el.successCond())
	}
	if !el.failable {
		return nil
	}
	alt, compNodes := flexible.Fallback(el.nodes[0])
	// Compensation chain: the element's own compensation block first (a
	// failure inside a multi-step segment leaves a committed prefix), then
	// the compensation blocks of the committed segments between here and
	// the divergence, nearest first.
	var chain []string
	if el.isBlock && len(el.nodes) > 1 {
		chain = append(chain, el.compName)
	}
	for _, n := range compNodes {
		ce := tr.elemOfNode[n]
		if !ce.isBlock {
			return fmt.Errorf("fmtm: internal error: compensating non-block element %q", ce.name)
		}
		if len(chain) == 0 || chain[len(chain)-1] != ce.compName {
			chain = append(chain, ce.compName)
		}
	}
	var altName string
	if alt != nil {
		altName = tr.elemOfNode[alt].name
	}
	if len(chain) == 0 {
		if altName != "" {
			tr.addEdge(el.name, altName, el.failCond())
		}
		return nil
	}
	tr.addEdge(el.name, chain[0], el.failCond())
	for i := 0; i+1 < len(chain); i++ {
		tr.addEdge(chain[i], chain[i+1], nil)
	}
	if altName != "" {
		tr.addEdge(chain[len(chain)-1], altName, nil)
	}
	return nil
}

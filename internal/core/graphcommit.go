package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"pvr/internal/aspath"
	"pvr/internal/commit"
	"pvr/internal/merkle"
	"pvr/internal/rfg"
	"pvr/internal/route"
	"pvr/internal/sigs"
)

// This file implements the generalized commitment and selective-disclosure
// mechanism of §3.5–3.7: the prover commits to its entire route-flow graph
// in a Merkle hash tree over prefix-free vertex labels, storing for each
// vertex x the triple I(x) = (c(x^p), c(x^s), c(x̄)) — commitments to the
// predecessor list, the successor list, and the data (route value or
// operator type) — so that each component can be revealed independently
// according to α, and neighbors can navigate the graph without learning
// unauthorized vertices.

// GraphCommitment is the signed root published to all neighbors each epoch.
type GraphCommitment struct {
	Prover aspath.ASN
	Epoch  uint64
	Root   merkle.Root
	Sig    []byte
}

func (gc *GraphCommitment) bytes() []byte {
	var buf bytes.Buffer
	buf.WriteString(tagRoot)
	var u8 [8]byte
	binary.BigEndian.PutUint64(u8[:], gc.Epoch)
	buf.Write(u8[:])
	binary.BigEndian.PutUint32(u8[:4], uint32(gc.Prover))
	buf.Write(u8[:4])
	buf.Write(gc.Root[:])
	return buf.Bytes()
}

// Verify checks the prover's signature over the root.
func (gc *GraphCommitment) Verify(reg sigs.Verifier) error {
	if err := reg.Verify(gc.Prover, gc.bytes(), gc.Sig); err != nil {
		return fmt.Errorf("%w: graph root: %v", ErrBadCommitment, err)
	}
	return nil
}

// GossipTopic returns the equivocation-detection topic for the root.
func (gc *GraphCommitment) GossipTopic() string {
	return fmt.Sprintf("graph/%d/%d", uint32(gc.Prover), gc.Epoch)
}

// GossipPayload returns canonical bytes plus signature for gossip.
func (gc *GraphCommitment) GossipPayload() ([]byte, []byte, error) {
	return gc.bytes(), gc.Sig, nil
}

// componentTag returns the commitment tag for one component of one vertex.
func componentTag(prover aspath.ASN, epoch uint64, label string, c rfg.Component) string {
	return fmt.Sprintf("pvr/graph/%d/%d/%s/%s", uint32(prover), epoch, label, c)
}

// GraphProver commits to and discloses a route-flow graph. Not safe for
// concurrent use.
type GraphProver struct {
	asn    aspath.ASN
	signer sigs.Signer
	graph  *rfg.Graph
	access *rfg.Access
	cm     commit.Committer

	epoch    uint64
	tree     *merkle.Tree
	gc       *GraphCommitment
	openings map[string]map[rfg.Component]commit.Opening
}

// NewGraphProver builds a prover over a frozen graph and access policy.
func NewGraphProver(asn aspath.ASN, signer sigs.Signer, g *rfg.Graph, access *rfg.Access) *GraphProver {
	return &GraphProver{asn: asn, signer: signer, graph: g, access: access}
}

// Commit evaluates the graph on the epoch's inputs and publishes the signed
// Merkle root over every vertex's I(x).
func (gp *GraphProver) Commit(epoch uint64, inputs map[rfg.VarID][]route.Route) (*GraphCommitment, error) {
	vals, err := gp.graph.Eval(inputs)
	if err != nil {
		return nil, err
	}
	gp.epoch = epoch
	gp.openings = make(map[string]map[rfg.Component]commit.Opening)
	items := make(map[string][]byte)

	addVertex := func(label string, preds, succs []string, data []byte) error {
		comps := map[rfg.Component][]byte{
			rfg.CompPreds: encodeStringList(preds),
			rfg.CompSuccs: encodeStringList(succs),
			rfg.CompData:  data,
		}
		ops := make(map[rfg.Component]commit.Opening, 3)
		var payload []byte
		for _, c := range []rfg.Component{rfg.CompPreds, rfg.CompSuccs, rfg.CompData} {
			cmt, op, err := gp.cm.Commit(componentTag(gp.asn, epoch, label, c), comps[c])
			if err != nil {
				return err
			}
			ops[c] = op
			payload = append(payload, cmt[:]...)
		}
		gp.openings[label] = ops
		items[label] = payload
		return nil
	}

	for _, v := range gp.graph.Vars() {
		label := v.Label()
		var preds []string
		if p, ok := gp.graph.Producer(v); ok {
			preds = []string{p.Label()}
		}
		var succs []string
		for _, r := range gp.graph.Readers(v) {
			succs = append(succs, r.Label())
		}
		data, err := encodeRoutes(vals[v])
		if err != nil {
			return nil, err
		}
		if err := addVertex(label, preds, succs, data); err != nil {
			return nil, err
		}
	}
	for _, o := range gp.graph.Ops() {
		op, in, out, _ := gp.graph.Op(o)
		label := o.Label()
		preds := make([]string, len(in))
		for i, v := range in {
			preds[i] = v.Label()
		}
		succs := []string{out.Label()}
		if err := addVertex(label, preds, succs, []byte(op.Type())); err != nil {
			return nil, err
		}
	}

	tree, err := merkle.Build(items, nil)
	if err != nil {
		return nil, err
	}
	gc := &GraphCommitment{Prover: gp.asn, Epoch: epoch, Root: tree.Root()}
	if gc.Sig, err = gp.signer.Sign(gc.bytes()); err != nil {
		return nil, err
	}
	gp.tree, gp.gc = tree, gc
	return gc, nil
}

// VertexDisclosure reveals one vertex to one neighbor: the Merkle proof
// authenticating I(x) against the signed root, plus openings for exactly
// the components α authorizes.
type VertexDisclosure struct {
	Label    string
	Proof    *merkle.Proof
	Openings map[rfg.Component]commit.Opening
}

// Disclose builds the disclosure of a vertex for a neighbor, revealing only
// α-authorized components. The neighbor must be authorized for at least one
// component.
func (gp *GraphProver) Disclose(to aspath.ASN, label string) (*VertexDisclosure, error) {
	if gp.tree == nil {
		return nil, fmt.Errorf("core: Commit not called")
	}
	if !gp.access.CanAny(to, label) {
		return nil, fmt.Errorf("core: %s not authorized for %s", to, label)
	}
	proof, err := gp.tree.Prove(label)
	if err != nil {
		return nil, err
	}
	d := &VertexDisclosure{
		Label:    label,
		Proof:    proof,
		Openings: make(map[rfg.Component]commit.Opening),
	}
	for _, c := range []rfg.Component{rfg.CompPreds, rfg.CompSuccs, rfg.CompData} {
		if gp.access.Can(to, label, c) {
			d.Openings[c] = gp.openings[label][c]
		}
	}
	return d, nil
}

// DisclosedVertex is the verified result of a disclosure: the components
// the neighbor was allowed to see, decoded.
type DisclosedVertex struct {
	Label string
	// Preds and Succs are vertex labels (nil when not disclosed).
	Preds, Succs []string
	HasPreds     bool
	HasSuccs     bool
	// Routes is the variable value; OpType the operator type. At most one
	// is meaningful depending on the vertex kind.
	Routes  []route.Route
	OpType  string
	HasData bool
}

// VerifyVertexDisclosure validates a disclosure against the published,
// signed root: the Merkle proof authenticates the three commitments, and
// each provided opening must match its commitment and tag. It returns the
// decoded visible components.
func VerifyVertexDisclosure(reg sigs.Verifier, gc *GraphCommitment, d *VertexDisclosure) (*DisclosedVertex, error) {
	if err := gc.Verify(reg); err != nil {
		return nil, err
	}
	if d.Proof == nil || d.Proof.Name != d.Label {
		return nil, fmt.Errorf("%w: proof label mismatch", ErrBadCommitment)
	}
	if err := merkle.VerifyProof(gc.Root, d.Proof); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCommitment, err)
	}
	if len(d.Proof.Payload) != 3*commit.Size {
		return nil, fmt.Errorf("%w: payload is %d bytes, want %d", ErrBadCommitment, len(d.Proof.Payload), 3*commit.Size)
	}
	var cmts [3]commit.Commitment
	for i := range cmts {
		copy(cmts[i][:], d.Proof.Payload[i*commit.Size:])
	}
	out := &DisclosedVertex{Label: d.Label}
	for c, op := range d.Openings {
		if c > rfg.CompData {
			return nil, fmt.Errorf("%w: unknown component %d", ErrBadCommitment, c)
		}
		if want := componentTag(gc.Prover, gc.Epoch, d.Label, c); op.Tag != want {
			return nil, fmt.Errorf("%w: opening tag %q, want %q", ErrBadCommitment, op.Tag, want)
		}
		if err := commit.Verify(cmts[c], op); err != nil {
			return nil, fmt.Errorf("%w: component %s opening rejected", ErrBadCommitment, c)
		}
		switch c {
		case rfg.CompPreds:
			ls, err := decodeStringList(op.Value)
			if err != nil {
				return nil, err
			}
			out.Preds, out.HasPreds = ls, true
		case rfg.CompSuccs:
			ls, err := decodeStringList(op.Value)
			if err != nil {
				return nil, err
			}
			out.Succs, out.HasSuccs = ls, true
		case rfg.CompData:
			out.HasData = true
			if len(d.Label) > 4 && d.Label[:4] == "var(" {
				rs, err := decodeRoutes(op.Value)
				if err != nil {
					return nil, err
				}
				out.Routes = rs
			} else {
				out.OpType = string(op.Value)
			}
		}
	}
	return out, nil
}

// Navigate walks the disclosed graph from a start vertex, following edges
// through every component the fetch function can obtain, and returns the
// vertices seen. fetch returns the neighbor's disclosure for a label, or an
// error when α denies it (the walk simply stops there, mirroring §3.5's
// "navigated ... without learning about the existence of rules or
// variables they are not authorized to see").
func Navigate(reg sigs.Verifier, gc *GraphCommitment, start string, fetch func(label string) (*VertexDisclosure, error)) (map[string]*DisclosedVertex, error) {
	seen := make(map[string]*DisclosedVertex)
	queue := []string{start}
	for len(queue) > 0 {
		label := queue[0]
		queue = queue[1:]
		if _, done := seen[label]; done {
			continue
		}
		d, err := fetch(label)
		if err != nil {
			continue // unauthorized or unavailable: stop exploring here
		}
		dv, err := VerifyVertexDisclosure(reg, gc, d)
		if err != nil {
			return nil, err
		}
		seen[label] = dv
		next := append(append([]string{}, dv.Preds...), dv.Succs...)
		sort.Strings(next)
		queue = append(queue, next...)
	}
	return seen, nil
}

// --- component encodings ---

func encodeStringList(ss []string) []byte {
	sorted := append([]string(nil), ss...)
	sort.Strings(sorted)
	var buf bytes.Buffer
	var u2 [2]byte
	binary.BigEndian.PutUint16(u2[:], uint16(len(sorted)))
	buf.Write(u2[:])
	for _, s := range sorted {
		binary.BigEndian.PutUint16(u2[:], uint16(len(s)))
		buf.Write(u2[:])
		buf.WriteString(s)
	}
	return buf.Bytes()
}

func decodeStringList(b []byte) ([]string, error) {
	if len(b) < 2 {
		return nil, fmt.Errorf("%w: short string list", ErrBadCommitment)
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		if len(b) < 2 {
			return nil, fmt.Errorf("%w: short string list", ErrBadCommitment)
		}
		l := int(binary.BigEndian.Uint16(b))
		b = b[2:]
		if len(b) < l {
			return nil, fmt.Errorf("%w: short string list", ErrBadCommitment)
		}
		out = append(out, string(b[:l]))
		b = b[l:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: trailing bytes in string list", ErrBadCommitment)
	}
	return out, nil
}

func encodeRoutes(rs []route.Route) ([]byte, error) {
	var buf bytes.Buffer
	var u2 [2]byte
	binary.BigEndian.PutUint16(u2[:], uint16(len(rs)))
	buf.Write(u2[:])
	for _, r := range rs {
		rb, err := r.MarshalBinary()
		if err != nil {
			return nil, err
		}
		binary.BigEndian.PutUint16(u2[:], uint16(len(rb)))
		buf.Write(u2[:])
		buf.Write(rb)
	}
	return buf.Bytes(), nil
}

func decodeRoutes(b []byte) ([]route.Route, error) {
	if len(b) < 2 {
		return nil, fmt.Errorf("%w: short route list", ErrBadCommitment)
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	out := make([]route.Route, 0, n)
	for i := 0; i < n; i++ {
		if len(b) < 2 {
			return nil, fmt.Errorf("%w: short route list", ErrBadCommitment)
		}
		l := int(binary.BigEndian.Uint16(b))
		b = b[2:]
		if len(b) < l {
			return nil, fmt.Errorf("%w: short route list", ErrBadCommitment)
		}
		var r route.Route
		if err := r.UnmarshalBinary(b[:l]); err != nil {
			return nil, err
		}
		out = append(out, r)
		b = b[l:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: trailing bytes in route list", ErrBadCommitment)
	}
	return out, nil
}

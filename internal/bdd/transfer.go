package bdd

// This file implements compact DAG serialization: Export writes a predicate
// as a canonical byte buffer and Import rebuilds it in any Manager over the
// same variables. Under a fixed variable order the buffer depends only on
// the function, so it is the canonical form the determinism tests compare
// (runs with and without collections or reordering must export identical
// results), and it lets a predicate move between Managers.
//
// Format (all integers unsigned LEB128 varints):
//
//	magic byte 0xBD, version byte 0x02
//	numVars   — variable count the DAG was exported under
//	orderFlag — 0: the sender's order is the identity; 1: explicit order
//	[order]   — with orderFlag 1: numVars varints, the variable id at each
//	            level of the sender's order
//	count     — number of non-terminal nodes
//	count × (level, low, high) node records in bottom-up DFS order, with
//	            levels in the sender's order
//	root      — reference to the exported function
//
// A node reference is 0 for False, 1 for True, and k+2 for the k-th record.
// Records appear in deterministic depth-first post-order (low before high
// before the node itself), so each record only references earlier ones and
// import is a single pass. Because an ROBDD is canonical, the byte encoding
// of a function is identical no matter which manager it is exported from:
// two managers over the same variables in the same order always produce
// byte-identical buffers for semantically equal predicates.
//
// With dynamic reordering the sender's and receiver's orders can differ.
// The order section pins down what the record levels mean; Import takes a
// fast structural path when the receiver's order matches and otherwise
// rebuilds the function over the receiver's order with ITE — same function,
// different shape. Version 0x01 buffers (no order section, identity order
// implied) remain readable.

import (
	"encoding/binary"
	"fmt"
	"sort"
)

const (
	transferMagic     = 0xBD
	transferVersion   = 0x02
	transferVersionV1 = 0x01
	// transferVersionV3 extends v2 with a weighted-terminal section for ADDs
	// (see add.go): after the order section, termCount followed by termCount
	// signed varint values; node references become 0 (False), 1 (True), 2+i
	// for the i-th terminal (ascending by value), then termCount+2+k for the
	// k-th record. Export emits v3 only when the DAG actually contains
	// weighted terminals, so pure-BDD buffers stay byte-identical to v2.
	transferVersionV3 = 0x03
)

// Export serializes the DAG rooted at f into the transfer format. The buffer
// depends only on the function and the variable order, not on the manager's
// node numbering.
func (m *Manager) Export(f Node) []byte {
	m.CheckNode(f)
	// Collect the DAG bottom-up. ref[n] is the reference assigned to node n;
	// weighted ADD terminals (self-loop records at terminalLevel) go to a
	// separate section and must not be walked into — their self-loops would
	// recurse forever.
	ref := make(map[Node]uint64, 64)
	var order []Node
	var terms []Node
	var walk func(Node)
	walk = func(g Node) {
		if g <= True {
			return
		}
		if _, ok := ref[g]; ok {
			return
		}
		n := m.nodes[g]
		if n.level == terminalLevel {
			ref[g] = 0 // placeholder; assigned after terminals are sorted
			terms = append(terms, g)
			return
		}
		walk(n.low)
		walk(n.high)
		ref[g] = uint64(len(order)) + 2
		order = append(order, g)
	}
	walk(f)
	version := byte(transferVersion)
	if len(terms) > 0 {
		version = transferVersionV3
		// Terminal references are canonical in the values, not the slots, so
		// two managers export the same weighted function byte-identically.
		sort.Slice(terms, func(i, j int) bool {
			return m.addVal[terms[i]] < m.addVal[terms[j]]
		})
		for i, t := range terms {
			ref[t] = uint64(i) + 2
		}
		for i, g := range order {
			ref[g] = uint64(len(terms)) + uint64(i) + 2
		}
	}

	buf := make([]byte, 0, 8+10*len(order))
	buf = append(buf, transferMagic, version)
	buf = binary.AppendUvarint(buf, uint64(m.numVars))
	if m.orderIsIdentity() {
		buf = append(buf, 0)
	} else {
		buf = append(buf, 1)
		for _, v := range m.level2var {
			buf = binary.AppendUvarint(buf, uint64(v))
		}
	}
	if version == transferVersionV3 {
		buf = binary.AppendUvarint(buf, uint64(len(terms)))
		for _, t := range terms {
			buf = binary.AppendVarint(buf, m.addVal[t])
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(order)))
	deref := func(g Node) uint64 {
		if g <= True {
			return uint64(g)
		}
		return ref[g]
	}
	for _, g := range order {
		n := m.nodes[g]
		buf = binary.AppendUvarint(buf, uint64(n.level))
		buf = binary.AppendUvarint(buf, deref(n.low))
		buf = binary.AppendUvarint(buf, deref(n.high))
	}
	buf = binary.AppendUvarint(buf, deref(f))
	return buf
}

// Import deserializes a buffer produced by Export into m and returns the
// root. The manager must hold at least the variables of the exporting
// manager, identified by id; when the receiver's order over those variables
// matches the sender's, hash-consing makes re-importing an already-present
// function free of new allocations, and otherwise the function is rebuilt
// over the receiver's order. Import panics on a malformed buffer or a
// variable-count mismatch — both are programming errors in the transfer
// plumbing, not recoverable conditions.
func Import(m *Manager, buf []byte) Node {
	// Safe point up front; the import loop itself only calls mk and iteRec,
	// which never collect, so the partially built record list cannot be
	// swept from under the loop.
	m.safe(False, False, False)
	read := func() uint64 {
		v, n := binary.Uvarint(buf)
		if n <= 0 {
			panic("bdd: Import: truncated buffer")
		}
		buf = buf[n:]
		return v
	}
	if len(buf) < 2 || buf[0] != transferMagic ||
		(buf[1] != transferVersion && buf[1] != transferVersionV1 && buf[1] != transferVersionV3) {
		panic("bdd: Import: bad magic or version")
	}
	version := buf[1]
	buf = buf[2:]
	readSigned := func() int64 {
		v, n := binary.Varint(buf)
		if n <= 0 {
			panic("bdd: Import: truncated buffer")
		}
		buf = buf[n:]
		return v
	}
	nv := read()
	if int(nv) > m.numVars {
		panic(fmt.Sprintf("bdd: Import: buffer uses %d variables, manager has %d", nv, m.numVars))
	}
	// senderVar[l] is the variable id at level l of the sender's order.
	var senderVar []int32
	if version == transferVersion || version == transferVersionV3 {
		if len(buf) < 1 {
			panic("bdd: Import: truncated buffer")
		}
		flag := buf[0]
		buf = buf[1:]
		if flag != 0 {
			senderVar = make([]int32, nv)
			seen := make([]bool, nv)
			for l := range senderVar {
				v := read()
				if v >= nv || seen[v] {
					panic("bdd: Import: malformed order section")
				}
				seen[v] = true
				senderVar[l] = int32(v)
			}
		}
	}
	// The fast path replays the records with mk: valid iff every sender
	// level means the same variable at the same position on the receiver.
	structural := true
	for l := 0; l < int(nv); l++ {
		sv := int32(l)
		if senderVar != nil {
			sv = senderVar[l]
		}
		if m.level2var[l] != sv {
			structural = false
			break
		}
	}
	nodes := []Node{False, True}
	if version == transferVersionV3 {
		termCount := read()
		for i := uint64(0); i < termCount; i++ {
			nodes = append(nodes, m.addConst(readSigned()))
		}
	}
	count := read()
	deref := func(r uint64) Node {
		if r >= uint64(len(nodes)) {
			panic("bdd: Import: forward or out-of-range node reference")
		}
		return nodes[r]
	}
	for i := uint64(0); i < count; i++ {
		level := read()
		if level >= nv {
			panic("bdd: Import: node level out of range")
		}
		low := deref(read())
		high := deref(read())
		if low == high {
			panic("bdd: Import: non-reduced node record")
		}
		if structural {
			nodes = append(nodes, m.mk(int32(level), low, high))
			continue
		}
		// Order mismatch: rebuild over the receiver's order. The record's
		// level names a sender position; translate to the variable id and
		// then to the receiver's position for that variable.
		sv := int32(level)
		if senderVar != nil {
			sv = senderVar[level]
		}
		rl := m.var2level[sv]
		nodes = append(nodes, m.iteRec(m.mkVar(rl), high, low))
	}
	return m.keep(deref(read()))
}

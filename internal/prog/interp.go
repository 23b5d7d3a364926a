package prog

import (
	"fmt"

	"faulthound/internal/isa"
)

// Interp is a sequential, architecturally exact interpreter for a
// Program. It is the golden model the out-of-order pipeline is tested
// against: after N committed instructions, the pipeline's architectural
// state must equal the interpreter's state after N steps.
type Interp struct {
	Prog *Program
	PC   uint64
	Regs [isa.NumArchRegs]uint64
	// Mem is the data segment as a flat word array: Mem[i] holds the
	// 64-bit word at DataBase+8i. Every access is bounds-checked by the
	// segment test first, so a load or store is one index.
	Mem []uint64
	// Halted reports that a HALT instruction was executed.
	Halted bool
	// Steps counts executed instructions.
	Steps uint64
	// Faulted holds a translation-exception description, if any.
	Faulted error
}

// NewInterp creates an interpreter positioned at the program entry with
// the initial data image loaded.
func NewInterp(p *Program) *Interp {
	m := make([]uint64, p.DataSize/8)
	for a, v := range p.Data {
		m[(a-p.DataBase)/8] = v
	}
	return &Interp{Prog: p, PC: p.Entry, Mem: m}
}

// word returns the Mem index of the in-segment address addr.
func (it *Interp) word(addr uint64) uint64 { return (addr - it.Prog.DataBase) / 8 }

// inSegment reports whether an 8-byte access at addr is mapped.
func (it *Interp) inSegment(addr uint64) bool {
	return addr >= it.Prog.DataBase && addr+8 <= it.Prog.DataBase+it.Prog.DataSize && addr%8 == 0
}

// Step executes one instruction. It returns false when the interpreter
// cannot make progress (halted, faulted, or PC out of range).
func (it *Interp) Step() bool {
	if it.Halted || it.Faulted != nil {
		return false
	}
	if it.PC >= uint64(len(it.Prog.Code)) {
		it.Faulted = fmt.Errorf("pc %d out of range", it.PC)
		return false
	}
	in := it.Prog.Code[it.PC]
	s1, s2 := it.Regs[in.Rs1], it.Regs[in.Rs2]
	out := isa.Exec(in, it.PC, s1, s2)
	it.Steps++

	switch {
	case out.Halt:
		it.Halted = true
		return false
	case in.Op == isa.LD:
		if !it.inSegment(out.EffAddr) {
			it.Faulted = fmt.Errorf("load translation exception at %#x", out.EffAddr)
			return false
		}
		it.write(in.Rd, it.Mem[it.word(out.EffAddr)])
	case in.Op == isa.ST:
		if !it.inSegment(out.EffAddr) {
			it.Faulted = fmt.Errorf("store translation exception at %#x", out.EffAddr)
			return false
		}
		it.Mem[it.word(out.EffAddr)] = out.Value
	case in.IsAtomic():
		if !it.inSegment(out.EffAddr) {
			it.Faulted = fmt.Errorf("atomic translation exception at %#x", out.EffAddr)
			return false
		}
		w := it.word(out.EffAddr)
		old := it.Mem[w]
		it.write(in.Rd, old)
		if in.Op == isa.AMOADD {
			it.Mem[w] = old + out.Value
		} else {
			it.Mem[w] = out.Value
		}
	case in.HasDest():
		it.write(in.Rd, out.Value)
	}

	if out.Taken {
		it.PC = out.Target
	} else {
		it.PC++
	}
	return true
}

func (it *Interp) write(rd isa.Reg, v uint64) {
	if rd == isa.RZero {
		return
	}
	it.Regs[rd] = v
}

// Run executes up to maxSteps instructions and returns the number
// executed.
func (it *Interp) Run(maxSteps uint64) uint64 {
	var n uint64
	for n < maxSteps && it.Step() {
		n++
	}
	// Step() returning false after executing HALT still counted it.
	return it.Steps
}

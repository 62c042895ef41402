// Package trace defines the memory-access trace format shared by the
// workload generators, the prefetchers, and the timing simulator.
//
// A trace is an ordered sequence of load accesses, mirroring the load trace
// of the ML Prefetching Competition ChampSim fork used by the PATHFINDER
// paper (§4.1): each record carries the instruction id, the program counter
// of the load, and the virtual byte address it touches. Prefetchers consume
// traces and emit prefetch files (see Prefetch); the simulator replays both.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Memory geometry used throughout the reproduction. These match the paper's
// setup: 4 KB pages with 64-byte cache blocks, so page offsets span 0..63
// and within-page block deltas span -63..+63 (D = 127 in §3.2).
const (
	// BlockBytes is the cache block (line) size in bytes.
	BlockBytes = 64
	// PageBytes is the virtual page size in bytes.
	PageBytes = 4096
	// BlocksPerPage is the number of cache blocks per page (64).
	BlocksPerPage = PageBytes / BlockBytes
	// MaxDelta is the largest possible within-page block delta (+63).
	MaxDelta = BlocksPerPage - 1
	// MinDelta is the smallest possible within-page block delta (-63).
	MinDelta = -MaxDelta

	// MaxAddr is the largest virtual byte address a trace record may
	// carry: the canonical 48-bit user address space of the x86-64/RISC-V
	// machines the paper models. Decoders reject addresses and PCs above
	// it — a field up there is a corrupt record, not a real load — and
	// encoders refuse to produce them, keeping the container closed.
	MaxAddr = 1<<48 - 1
)

// Access is one load in a memory trace.
type Access struct {
	// ID is the instruction id of the load. IDs increase monotonically
	// along a trace but need not be dense: the gap between consecutive
	// IDs stands in for the non-load instructions executed between the
	// two loads, which the timing model uses to compute IPC.
	ID uint64
	// PC is the program counter of the load instruction.
	PC uint64
	// Addr is the virtual byte address touched by the load.
	Addr uint64
	// Chain, when non-zero, names a serial dependence chain: this load's
	// address was computed from the data of the chain's previous load, so
	// it cannot issue until that load completes. This carries the
	// register-dependency information of ChampSim traces in compressed
	// form; pointer-chasing loads are the classic members.
	Chain uint32
}

// Block returns the cache-block address (byte address >> 6) of the access.
func (a Access) Block() uint64 { return a.Addr / BlockBytes }

// Page returns the virtual page number of the access.
func (a Access) Page() uint64 { return a.Addr / PageBytes }

// Offset returns the block offset within the page, in [0, BlocksPerPage).
func (a Access) Offset() int { return int(a.Addr % PageBytes / BlockBytes) }

// Prefetch is one entry of a prefetch file: a block address to prefetch,
// issued when the trace reaches the access with the given instruction ID.
// This mirrors the two-phase flow of the competition ChampSim fork, where a
// prefetching technique first turns the memory trace into a prefetch file
// and the simulator then replays both together (§4.1).
type Prefetch struct {
	// ID is the instruction id of the triggering load.
	ID uint64
	// Addr is the byte address of the block to prefetch.
	Addr uint64
}

// Block returns the cache-block address of the prefetch target.
func (p Prefetch) Block() uint64 { return p.Addr / BlockBytes }

// BlockAddr converts a block number back to the byte address of its first
// byte. It is the inverse of Access.Block.
func BlockAddr(block uint64) uint64 { return block * BlockBytes }

// PageOf returns the page number containing the given block number.
func PageOf(block uint64) uint64 { return block / BlocksPerPage }

// OffsetOf returns the within-page offset of the given block number.
func OffsetOf(block uint64) int { return int(block % BlocksPerPage) }

// WritePrefetches encodes a prefetch file to w. The format mirrors the
// counted trace container: magic "PFP1", uvarint count, then per record
// uvarint ID delta and a raw uvarint address. Prefetch IDs must be
// non-decreasing.
func WritePrefetches(w io.Writer, pfs []Prefetch) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write([]byte("PFP1")); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	put := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := put(uint64(len(pfs))); err != nil {
		return err
	}
	prevID := uint64(0)
	for i, p := range pfs {
		if p.ID < prevID {
			return fmt.Errorf("trace: prefetch %d has ID %d < previous ID %d", i, p.ID, prevID)
		}
		if p.Addr > MaxAddr {
			return fmt.Errorf("trace: prefetch %d has addr %#x beyond the canonical address space", i, p.Addr)
		}
		if err := put(p.ID - prevID); err != nil {
			return err
		}
		prevID = p.ID
		if err := put(p.Addr); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadPrefetches decodes a prefetch file written by WritePrefetches.
func ReadPrefetches(r io.Reader) ([]Prefetch, error) {
	br := bufio.NewReader(r)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(m[:]) != "PFP1" {
		return nil, errors.New("trace: bad magic; not a PFP1 prefetch file")
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading count: %w", err)
	}
	const sanityMax = 1 << 30
	if n > sanityMax {
		return nil, fmt.Errorf("trace: implausible record count %d", n)
	}
	pfs := make([]Prefetch, 0, min(n, presizeMax))
	id := uint64(0)
	for i := uint64(0); i < n; i++ {
		d, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: record %d id: %w", i, err)
		}
		if d > ^uint64(0)-id {
			return nil, fmt.Errorf("trace: record %d: id delta %d overflows the id sequence", i, d)
		}
		id += d
		addr, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: record %d addr: %w", i, err)
		}
		if addr > MaxAddr {
			return nil, fmt.Errorf("trace: record %d: addr %#x beyond the canonical address space", i, addr)
		}
		pfs = append(pfs, Prefetch{ID: id, Addr: addr})
	}
	return pfs, nil
}

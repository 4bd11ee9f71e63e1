package compress

import (
	"encoding/binary"
	"fmt"

	"samplecf/internal/value"
)

// GlobalDict is the paper's simplified dictionary-compression model
// (§III-B): paging effects are ignored, a single global dictionary per
// column stores each distinct value once at the column's fixed width, and
// every row stores one pointer of p bytes. The whole-index compressed size
// per column is therefore n·p + d·k — the expression the paper's CF_D and
// its estimator CF'_D = p/k + d'/r are built from.
type GlobalDict struct {
	// PointerBytes fixes the paper's constant p. When 0, the pointer width
	// is chosen at Finish from the final dictionary size (⌈log₂ d⌉ bits
	// rounded to bytes), per the paper's "in general requires" remark.
	PointerBytes int
}

// globalDictNames are GlobalDict's names by PointerBytes, constants so
// that Name — called on every measurement (recordMeasure) — allocates
// nothing.
var globalDictNames = [...]string{"globaldict", "globaldict(p=1)", "globaldict(p=2)", "globaldict(p=3)",
	"globaldict(p=4)", "globaldict(p=5)", "globaldict(p=6)", "globaldict(p=7)", "globaldict(p=8)"}

// Name implements Codec.
func (g GlobalDict) Name() string {
	switch {
	case g.PointerBytes <= 0:
		return globalDictNames[0]
	case g.PointerBytes < len(globalDictNames):
		return globalDictNames[g.PointerBytes]
	}
	// Out of range: every measurement rejects it, so no hot path names it.
	return fmt.Sprintf("globaldict(p=%d)", g.PointerBytes)
}

// NewSession implements Codec.
func (g GlobalDict) NewSession(schema *value.Schema) (Session, error) {
	if schema == nil {
		return nil, fmt.Errorf("compress: nil schema")
	}
	if g.PointerBytes < 0 || g.PointerBytes > 8 {
		return nil, fmt.Errorf("compress: pointer size %d out of range", g.PointerBytes)
	}
	s := &globalSession{g: g, schema: schema, cols: columnOffsets(schema)}
	s.dicts = make([]map[string]int, schema.NumColumns())
	s.entries = make([][][]byte, schema.NumColumns())
	s.ptrs = make([][]uint32, schema.NumColumns())
	for c := range s.dicts {
		s.dicts[c] = make(map[string]int)
	}
	return s, nil
}

type globalSession struct {
	g      GlobalDict
	schema *value.Schema
	cols   [][2]int

	dicts   []map[string]int
	entries [][][]byte // per column: dictionary entries in first-appearance order
	ptrs    [][]uint32 // per column: one pointer per row
	rows    int64
	pages   int
	done    bool
}

// AddPage implements Session.
func (s *globalSession) AddPage(records [][]byte) error {
	if s.done {
		return fmt.Errorf("compress: session finished")
	}
	if err := checkRecords(s.schema, records); err != nil {
		return err
	}
	for _, rec := range records {
		for c := range s.cols {
			v := rec[s.cols[c][0]:s.cols[c][1]]
			j, ok := s.dicts[c][string(v)]
			if !ok {
				j = len(s.dicts[c])
				s.dicts[c][string(v)] = j
				s.entries[c] = append(s.entries[c], append([]byte(nil), v...))
			}
			s.ptrs[c] = append(s.ptrs[c], uint32(j))
		}
	}
	s.rows += int64(len(records))
	s.pages++
	return nil
}

// Finish implements Session. The encoded output is a single blob:
//
//	[rows uint32]
//	per column: [entries uint32][entry bytes (fixed width each)]
//	            [pointers rows × p bytes]
func (s *globalSession) Finish() (Result, error) {
	if s.done {
		return Result{}, fmt.Errorf("compress: session finished twice")
	}
	s.done = true
	res := Result{
		Rows:              s.rows,
		Pages:             s.pages,
		UncompressedBytes: s.rows * int64(s.schema.RowWidth()),
	}
	var out []byte
	var b4 [4]byte
	binary.LittleEndian.PutUint32(b4[:], uint32(s.rows))
	out = append(out, b4[:]...)
	for c := range s.cols {
		binary.LittleEndian.PutUint32(b4[:], uint32(len(s.entries[c])))
		out = append(out, b4[:]...)
		for _, e := range s.entries[c] {
			out = append(out, e...)
		}
		p := s.g.PointerBytes
		if p == 0 {
			p = pointerSize(len(s.entries[c]))
		}
		for _, j := range s.ptrs[c] {
			out = putPointer(out, int(j), p)
		}
		res.DictEntries += int64(len(s.entries[c]))
	}
	res.CompressedBytes = int64(len(out))
	res.Encoded = [][]byte{out}
	return res, nil
}

// DecodeGlobal reverses a GlobalDict session's encoded blob back into
// fixed-width records, for round-trip verification.
func DecodeGlobal(g GlobalDict, schema *value.Schema, blob []byte) ([][]byte, error) {
	cols := columnOffsets(schema)
	if len(blob) < 4 {
		return nil, ErrCorrupt
	}
	rows := int(binary.LittleEndian.Uint32(blob))
	blob = blob[4:]
	records := make([][]byte, rows)
	for i := range records {
		records[i] = make([]byte, schema.RowWidth())
	}
	for c := range cols {
		w := cols[c][1] - cols[c][0]
		if len(blob) < 4 {
			return nil, ErrCorrupt
		}
		m := int(binary.LittleEndian.Uint32(blob))
		blob = blob[4:]
		if len(blob) < m*w {
			return nil, ErrCorrupt
		}
		entries := make([][]byte, m)
		for j := 0; j < m; j++ {
			entries[j] = blob[:w]
			blob = blob[w:]
		}
		p := g.PointerBytes
		if p == 0 {
			p = pointerSize(m)
		}
		for i := 0; i < rows; i++ {
			j, rest, err := getPointer(blob, p)
			if err != nil {
				return nil, err
			}
			if j >= m {
				return nil, ErrCorrupt
			}
			copy(records[i][cols[c][0]:cols[c][1]], entries[j])
			blob = rest
		}
	}
	if len(blob) != 0 {
		return nil, ErrCorrupt
	}
	return records, nil
}

func init() {
	Register("globaldict", func() Codec { return GlobalDict{} })
	Register("globaldict-p4", func() Codec { return GlobalDict{PointerBytes: 4} })
}

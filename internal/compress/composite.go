package compress

import (
	"fmt"
	"sync"

	"samplecf/internal/value"
)

// PickBest encodes each page with every member codec and keeps the smallest
// result, prefixed with a 1-byte member tag. This mirrors how engines decide
// per page whether richer compression pays for itself — and it is exactly
// the kind of codec a sampling estimator must stay agnostic to, since the
// winning member can differ between the sample and the full index.
type PickBest struct {
	Members []PageCodec
	Label   string
}

// NewPageCompression returns the default composite approximating commercial
// "PAGE" compression: NS, prefix, page dictionary (row-compressed entries),
// and RLE compete per page.
func NewPageCompression() *PickBest {
	return &PickBest{
		Label: "page",
		Members: []PageCodec{
			NullSuppression{},
			Prefix{},
			&PageDict{EntryNS: true},
			RLE{},
		},
	}
}

// Name implements PageCodec.
func (p *PickBest) Name() string {
	if p.Label != "" {
		return p.Label
	}
	return "pickbest"
}

// EncodePage implements PageCodec.
func (p *PickBest) EncodePage(schema *value.Schema, records [][]byte) ([]byte, error) {
	out, _, err := p.AppendPage(schema, records, nil)
	return out, err
}

// pickScratch pools the two candidate buffers a PickBest encode ping-pongs
// between: the best-so-far encoding and the current member's attempt.
type pickScratch struct {
	best, cand []byte
}

var pickScratchPool = sync.Pool{New: func() any { return &pickScratch{} }}

// AppendPage implements PageAppender. Every member codec encodes into
// pooled scratch; only the winner's bytes are copied to dst.
func (p *PickBest) AppendPage(schema *value.Schema, records [][]byte, dst []byte) ([]byte, int64, error) {
	if len(p.Members) == 0 || len(p.Members) > 255 {
		return dst, 0, fmt.Errorf("compress: pickbest needs 1..255 members, has %d", len(p.Members))
	}
	sc := pickScratchPool.Get().(*pickScratch)
	defer pickScratchPool.Put(sc)
	// DictEntries mirrors the historical (conservative) accounting: the sum
	// over all dictionary members' encodes, whether or not one won the page.
	var dictEntries int64
	// Two buffers rotate: `best` holds the winner so far, `scratch` is the
	// next member's encode target; when a member wins, the old best buffer
	// becomes the new scratch.
	best := sc.best[:0]
	bestTag := -1
	scratch := sc.cand[:0]
	for tag, m := range p.Members {
		var enc []byte
		var de int64
		var err error
		if ap, ok := m.(PageAppender); ok {
			enc, de, err = ap.AppendPage(schema, records, scratch)
		} else {
			enc, err = m.EncodePage(schema, records)
		}
		if err != nil {
			return dst, 0, fmt.Errorf("compress: member %s: %w", m.Name(), err)
		}
		dictEntries += de
		if bestTag < 0 || len(enc) < len(best) {
			best, scratch = enc, best[:0]
			bestTag = tag
		} else {
			scratch = enc[:0]
		}
	}
	sc.best, sc.cand = best[:0], scratch
	out := append(dst, byte(bestTag))
	return append(out, best...), dictEntries, nil
}

// SizePage implements PageSizer: the tag byte plus the smallest member
// size, with every member's dictionary entries summed as AppendPage sums
// them. Members that size from suppressed lengths share one scan of the
// page; the rest size through their own PageSizer, or encode.
func (p *PickBest) SizePage(schema *value.Schema, records [][]byte) (int, int64, error) {
	if len(p.Members) == 0 || len(p.Members) > 255 {
		return 0, 0, fmt.Errorf("compress: pickbest needs 1..255 members, has %d", len(p.Members))
	}
	var sp *suppressedPage
	defer func() {
		if sp != nil {
			putSuppressed(sp)
		}
	}()
	best := -1
	var dictEntries int64
	for _, m := range p.Members {
		var n int
		var de int64
		var err error
		if ss, ok := m.(suppressedSizer); ok {
			if sp == nil {
				err = checkRecords(schema, records)
				if err == nil {
					sp = scanSuppressed(schema, records)
				}
			}
			if err == nil {
				n, de, err = ss.sizeSuppressed(schema, records, sp)
			}
		} else {
			n, de, err = pageSize(m, schema, records)
		}
		if err != nil {
			return 0, 0, fmt.Errorf("compress: member %s: %w", m.Name(), err)
		}
		dictEntries += de
		if best < 0 || n < best {
			best = n
		}
	}
	return 1 + best, dictEntries, nil
}

// DecodePage implements PageCodec.
func (p *PickBest) DecodePage(schema *value.Schema, data []byte) ([][]byte, error) {
	if len(data) < 1 {
		return nil, ErrCorrupt
	}
	tag := int(data[0])
	if tag >= len(p.Members) {
		return nil, ErrCorrupt
	}
	return p.Members[tag].DecodePage(schema, data[1:])
}

func init() {
	Register("page", func() Codec { return Paged{PC: NewPageCompression()} })
}

package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call from the benchmark into a layer. Names are
// "<layer>.<call>", where the layer is a module of the repository
// (sim, llrp, fleet, core, sigproc). id is the report, update or call
// sequence number the span served; parent indexes the span in the same
// log that caused it (-1 for none).
type span struct {
	name       string
	id         uint64
	parent     int32
	start, end int64 // nanoseconds since the log's epoch
}

// spanLog records one goroutine's spans in memory; each goroutine that
// records owns its own log, so recording takes no lock. A nil log
// records nothing, which is how untraced runs skip tracing.
type spanLog struct {
	epoch   time.Time
	spans   []span
	limit   int
	dropped int
}

// maxSpansPerLog bounds one log's memory (about 40 bytes a span).
const maxSpansPerLog = 1 << 20

func newSpanLog(epoch time.Time) *spanLog {
	return &spanLog{epoch: epoch, limit: maxSpansPerLog}
}

// now returns the log's clock, or 0 on a nil log.
func (l *spanLog) now() int64 {
	if l == nil {
		return 0
	}
	return int64(time.Since(l.epoch))
}

// add records a finished span and returns its index (-1 when not
// recorded).
func (l *spanLog) add(name string, id uint64, parent int32, start, end int64) int32 {
	if l == nil {
		return -1
	}
	if len(l.spans) >= l.limit {
		l.dropped++
		return -1
	}
	l.spans = append(l.spans, span{name: name, id: id, parent: parent, start: start, end: end})
	return int32(len(l.spans) - 1)
}

// layerOf is the layer prefix of a span name.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTime sums, per layer, each span's duration minus the part of its
// interval covered by its child spans.
func selfTime(logs []*spanLog) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, l := range logs {
		if l == nil {
			continue
		}
		children := make(map[int32][][2]int64)
		for _, s := range l.spans {
			if s.parent >= 0 {
				children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
			}
		}
		for i, s := range l.spans {
			self := s.end - s.start
			if kids := children[int32(i)]; len(kids) > 0 {
				self -= covered(kids, s.start, s.end)
			}
			out[layerOf(s.name)] += time.Duration(self)
		}
	}
	return out
}

// covered returns how much of [lo, hi) the union of intervals covers.
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	cur := lo
	for _, v := range iv {
		s, e := v[0], v[1]
		if s < cur {
			s = cur
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// writeSpans writes every log as CSV to path, creating its directory.
func writeSpans(path string, logs []*spanLog) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("benchmark: spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("benchmark: spans: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("benchmark: spans: %w", cerr)
		}
	}()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "log,index,name,id,parent,start_ns,end_ns")
	for li, l := range logs {
		if l == nil {
			continue
		}
		for i, s := range l.spans {
			fmt.Fprintf(w, "%d,%d,%s,%d,%d,%d,%d\n", li, i, s.name, s.id, s.parent, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("benchmark: spans: %w", err)
	}
	return nil
}

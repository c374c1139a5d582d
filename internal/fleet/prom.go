package fleet

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// promMerger folds several Prometheus text exposition pages into one by
// summing series with identical names+labels. Counters sum trivially;
// histogram _bucket/_sum/_count series sum correctly because every
// backend runs the same binary and therefore the same bucket layout;
// gauges (inflight, cache bytes) sum into cluster totals. Every tier's
// page holds only such summable series: ratios and verdicts live on /slo.
//
// Series order is first-seen across pages, and one # TYPE line is kept
// per metric family, so the merged page looks like a single server's.
type promMerger struct {
	order  []string           // series keys in first-seen order
	values map[string]float64 // series key -> summed value
	types  map[string]string  // family -> its first "# TYPE ..." line
}

func newPromMerger() *promMerger {
	return &promMerger{values: map[string]float64{}, types: map[string]string{}}
}

// parsePage parses one exposition page into a merger of its own, so a
// malformed page fails alone, before anything of it is merged.
func parsePage(page []byte) (*promMerger, error) {
	m := newPromMerger()
	sc := bufio.NewScanner(bytes.NewReader(page))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if fields := strings.Fields(line); len(fields) >= 3 && fields[1] == "TYPE" {
				if family := fields[2]; m.types[family] == "" {
					m.types[family] = line
				}
			}
			continue
		}
		// "<name>[{labels}] <value>": the value is the last field.
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			return nil, fmt.Errorf("fleet: bad metrics line %q", line)
		}
		key, valStr := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return nil, fmt.Errorf("fleet: bad metrics value in %q: %v", line, err)
		}
		m.add(key, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return m, nil
}

// add sums v into one series.
func (m *promMerger) add(key string, v float64) {
	if _, seen := m.values[key]; !seen {
		m.order = append(m.order, key)
	}
	m.values[key] += v
}

// merge folds a parsed page in: its series in their order, and the TYPE
// line of each family m has none for yet.
func (m *promMerger) merge(page *promMerger) {
	for family, line := range page.types {
		if m.types[family] == "" {
			m.types[family] = line
		}
	}
	for _, key := range page.order {
		m.add(key, page.values[key])
	}
}

// render writes the merged series in first-seen order, each family's
// TYPE line just before its first series (a histogram's family is its
// series name less _bucket, _sum or _count).
func (m *promMerger) render(buf *bytes.Buffer) {
	emittedType := map[string]bool{}
	for _, key := range m.order {
		family, _, _ := strings.Cut(key, "{")
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if f, ok := strings.CutSuffix(family, suffix); ok && m.types[f] != "" {
				family = f
				break
			}
		}
		if tl := m.types[family]; tl != "" && !emittedType[family] {
			emittedType[family] = true
			buf.WriteString(tl)
			buf.WriteByte('\n')
		}
		fmt.Fprintf(buf, "%s %g\n", key, m.values[key])
	}
}

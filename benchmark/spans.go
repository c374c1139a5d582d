package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"trafficscope/internal/edge"
	"trafficscope/internal/trace"
)

// span is one interval spent inside a layer. Spans of one request (or of
// one study repetition) share an ID; Parent names the span that caused
// this one, which for a request is the span of the same ID one tier up.
type span struct {
	ID     uint64
	Name   string
	Parent string
	Start  time.Duration // since the recorder was made
	End    time.Duration
}

// recorder keeps spans in memory until the run ends. It lives in the
// benchmark, around the calls into each layer; the program is untouched.
type recorder struct {
	t0 time.Time
	// on gates the serve middleware, so the tiers of a traced run can
	// also serve the untraced repetitions the overhead is measured against.
	on atomic.Bool

	mu    sync.Mutex
	spans []span
	sum   map[string]time.Duration
	count map[string]int64
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), sum: map[string]time.Duration{}, count: map[string]int64{}}
}

func (r *recorder) add(id uint64, name, parent string, start, end time.Time) {
	s := span{ID: id, Name: name, Parent: parent, Start: start.Sub(r.t0), End: end.Sub(r.t0)}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.sum[name] += s.End - s.Start
	r.count[name]++
	r.mu.Unlock()
}

// tracing reports whether the serve middleware is recording.
func (r *recorder) tracing() bool { return r != nil && r.on.Load() }

// total returns the summed duration and the number of spans named name.
func (r *recorder) total(name string) (time.Duration, int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sum[name], r.count[name]
}

// stage runs fn as one span of a study repetition and returns how long
// it took.
func (r *recorder) stage(rep uint64, name string, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	r.add(rep, name, "rep", start, end)
	return end.Sub(start), err
}

// requestID derives the ID the spans of one request share from the
// record key the wire path already carries: user, object, timestamp.
func requestID(rec *trace.Record) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range [3]uint64{rec.UserID, rec.ObjectID, uint64(rec.Timestamp.UnixNano())} {
		h = (h ^ v) * 1099511628211
	}
	return h
}

// tierNames says what a tier's spans are called: one name and parent for
// object requests, one for fill requests.
type tierNames struct {
	object, objectParent string
	fill, fillParent     string
}

func (r *recorder) observe(t tierNames, req *http.Request, start time.Time) {
	var rec trace.Record
	name, parent := t.object, t.objectParent
	var err error
	if strings.HasPrefix(req.URL.Path, edge.FillPrefix) {
		name, parent = t.fill, t.fillParent
		err = edge.ParseFillRequestInto(req, &rec)
	} else {
		err = edge.ParseRequestInto(req, &rec)
	}
	if err == nil {
		r.add(requestID(&rec), name, parent, start, time.Now())
	}
}

// middleware wraps a tier's handler so every request it serves while the
// recorder is on leaves a span.
func (r *recorder) middleware(t tierNames, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.on.Load() {
			next.ServeHTTP(w, req)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, req)
		r.observe(t, req, start)
	})
}

// spanTransport records the client's side of each request: from the send
// until the response body is closed, so the tiers' spans lie inside it.
type spanTransport struct {
	r    *recorder
	next http.RoundTripper
}

type spanBody struct {
	io.ReadCloser
	done func()
}

func (b spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.done()
	return err
}

func (t spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.r.on.Load() {
		return t.next.RoundTrip(req)
	}
	start := time.Now()
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = spanBody{resp.Body, func() { t.r.observe(tierNames{object: "client"}, req, start) }}
	return resp, nil
}

// writeFile writes every span as one JSON array, one span per line.
func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	w.WriteString("[\n")
	for i, s := range r.spans {
		line, _ := json.Marshal(map[string]any{
			"id":       strconv.FormatUint(s.ID, 16),
			"name":     s.Name,
			"parent":   s.Parent,
			"start_ns": s.Start.Nanoseconds(),
			"end_ns":   s.End.Nanoseconds(),
		})
		w.Write(line)
		if i < len(r.spans)-1 {
			w.WriteByte(',')
		}
		w.WriteByte('\n')
	}
	w.WriteString("]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

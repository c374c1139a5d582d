package analysis

import (
	"fmt"
	"slices"

	"trafficscope/internal/trace"
)

// keyed is an analyzer that takes records resolved against a keyspace.
// Every analysis in this package is one (they embed base), and Fold
// folds nothing else.
type keyed interface {
	Analyzer
	// bind makes the analyzer resolve through the fold's keyspace.
	bind(*keyspace)
	// add folds one record that k resolves.
	add(r *trace.Record, k *recKey)
	// adopt takes over the state of every site src, an analyzer of the
	// same type, holds; src's keyspace was adopted at off. perSite
	// implements it for every analyzer.
	adopt(src keyed, off int32)
}

// Fold folds one record into every analysis of a study; it satisfies
// pipeline.Accumulator so the analysis pass parallelizes. The analyzer
// set is registry-driven: one entry per descriptor the study selected,
// so pruned analyses cost nothing — not even construction. The record's
// site, category, hour, object and user are resolved once against the
// fold's keyspace, which all its analyzers index their state by.
type Fold struct {
	descs []Descriptor
	accs  []keyed
	ks    *keyspace
	// k is the record being folded: a field, because a local handed to
	// the analyzers through their interface would be allocated per record.
	k recKey
	n int64
}

// NewFold constructs one analyzer per descriptor. It panics on a
// descriptor whose analyzer is not keyed: descriptors are declared in
// this package's registry, so that is a programming error.
func NewFold(descs []Descriptor, p Params) *Fold {
	f := &Fold{
		descs: descs,
		accs:  make([]keyed, len(descs)),
		ks:    newKeyspace(p.Week, 0),
	}
	for i, d := range descs {
		ka, ok := d.New(p).(keyed)
		if !ok {
			panic(fmt.Sprintf("analysis: analyzer %q does not resolve through a keyspace", d.Name))
		}
		ka.bind(f.ks)
		f.accs[i] = ka
	}
	return f
}

// Add implements pipeline.Accumulator.
func (f *Fold) Add(r *trace.Record) {
	f.n++
	f.ks.resolve(r, &f.k)
	for _, ka := range f.accs {
		ka.add(r, &f.k)
	}
}

// Merge implements pipeline.Accumulator by adoption: o's sites join
// f's, and every analyzer's state for them moves over as it is, not
// copied, so o must not be used afterwards. The two folds must come from
// the same descriptor set and hold disjoint sites, both always true
// inside one pipeline run, which folds each publisher on one worker;
// Merge panics otherwise.
func (f *Fold) Merge(o *Fold) {
	if !slices.EqualFunc(f.descs, o.descs, func(a, b Descriptor) bool { return a.Name == b.Name }) {
		panic(fmt.Sprintf("analysis: merging a fold of %v into a fold of %v", descNames(o.descs), descNames(f.descs)))
	}
	f.n += o.n
	off := f.ks.adopt(o.ks)
	for i, ka := range f.accs {
		ka.adopt(o.accs[i], off)
	}
}

func descNames(descs []Descriptor) []string {
	names := make([]string, len(descs))
	for i, d := range descs {
		names[i] = d.Name
	}
	return names
}

// Records returns the number of records folded.
func (f *Fold) Records() int64 { return f.n }

// Sites returns the publishers of the records folded. Every record
// resolves its site in the fold's keyspace, so the list does not depend
// on which analyzers run.
func (f *Fold) Sites() []string {
	out := make([]string, len(f.ks.sites))
	for i := range f.ks.sites {
		out[i] = f.ks.sites[i].name
	}
	return out
}

// Analyzers returns the folded analyzers by registry name.
func (f *Fold) Analyzers() map[string]Analyzer {
	out := make(map[string]Analyzer, len(f.descs))
	for i, d := range f.descs {
		out[d.Name] = f.accs[i]
	}
	return out
}

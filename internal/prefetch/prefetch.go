// Package prefetch implements the feedback-directed multi-stream
// prefetcher of Table 2 (Srinath et al., HPCA 2007; IBM Power6-style):
// 16 stream entries trained on L2 demand misses, prefetch degree 4,
// prefetch distance 24 lines, filling into L3.
package prefetch

import (
	"repro/internal/arch"
	"repro/internal/sim"
)

// Target receives the prefetch requests (the cache hierarchy fills them
// into L3). Prefetch reports whether a new fetch was actually issued
// (false when the line is already cached or in flight).
type Target interface {
	Prefetch(addr arch.PhysAddr) bool
}

// Config tunes the prefetcher.
type Config struct {
	Streams   int // stream table entries
	Degree    int // prefetches issued per trained miss
	Distance  int // how far ahead of the demand stream to run, in lines
	TrainSpan int // a miss within this many lines of a stream trains it
}

// DefaultConfig mirrors Table 2.
func DefaultConfig() Config {
	return Config{Streams: 16, Degree: 4, Distance: 24, TrainSpan: 16}
}

type stream struct {
	valid    bool
	lastLine int64 // line number of most recent miss in this stream
	dir      int64 // +1, -1, or 0 while direction is unknown
	aheadTo  int64 // highest (dir-relative) line already prefetched
	lastUsed uint64
}

// Prefetcher is the stream table. It implements cache.MissObserver.
type Prefetcher struct {
	cfg     Config
	target  Target
	stats   *sim.Stats
	streams []stream
	clock   uint64

	// Counter handles, bound on first use: a prefetcher that never
	// issues (a run of a few instructions) must add no zero counter to
	// the export.
	issued, allocated *uint64
}

// New builds a prefetcher that issues into target and counts into stats.
func New(cfg Config, target Target, stats *sim.Stats) *Prefetcher {
	return &Prefetcher{cfg: cfg, target: target, stats: stats, streams: make([]stream, cfg.Streams)}
}

// OnMiss trains the prefetcher with an L2 demand miss.
func (p *Prefetcher) OnMiss(addr arch.PhysAddr) {
	line := int64(uint64(addr) >> arch.LineShift)
	p.clock++

	if s := p.match(line); s != nil {
		s.lastUsed = p.clock
		delta := line - s.lastLine
		if delta == 0 {
			return
		}
		dir := int64(1)
		if delta < 0 {
			dir = -1
		}
		if s.dir == 0 {
			s.dir = dir
			s.aheadTo = line
		} else if s.dir != dir {
			// Direction flip: retrain the stream in the new direction.
			s.dir = dir
			s.aheadTo = line
		}
		s.lastLine = line
		p.issue(s)
		return
	}
	p.allocate(line)
}

// match finds a stream whose trained window covers the missing line.
func (p *Prefetcher) match(line int64) *stream {
	for i := range p.streams {
		s := &p.streams[i]
		if !s.valid {
			continue
		}
		d := line - s.lastLine
		if d < 0 {
			d = -d
		}
		if d <= int64(p.cfg.TrainSpan) {
			return s
		}
	}
	return nil
}

func (p *Prefetcher) allocate(line int64) {
	victim := 0
	for i := range p.streams {
		if !p.streams[i].valid {
			victim = i
			break
		}
		if p.streams[i].lastUsed < p.streams[victim].lastUsed {
			victim = i
		}
	}
	p.streams[victim] = stream{valid: true, lastLine: line, lastUsed: p.clock}
	if p.allocated == nil {
		p.allocated = p.stats.Counter("prefetch.streams_allocated")
	}
	*p.allocated++
}

// issue sends up to Degree prefetches, staying within Distance lines of
// the demand stream.
func (p *Prefetcher) issue(s *stream) {
	limit := s.lastLine + s.dir*int64(p.cfg.Distance)
	issued := 0
	for issued < p.cfg.Degree {
		next := s.aheadTo + s.dir
		if s.dir > 0 && next > limit || s.dir < 0 && next < limit {
			return
		}
		if next < 0 {
			return
		}
		s.aheadTo = next
		p.target.Prefetch(arch.PhysAddr(uint64(next) << arch.LineShift))
		if p.issued == nil {
			p.issued = p.stats.Counter("prefetch.issued")
		}
		*p.issued++
		issued++
	}
}

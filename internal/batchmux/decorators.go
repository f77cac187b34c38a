package batchmux

import (
	"context"
	"strings"

	"github.com/smishkit/smishkit/internal/avscan"
	"github.com/smishkit/smishkit/internal/core"
	"github.com/smishkit/smishkit/internal/dnsdb"
	"github.com/smishkit/smishkit/internal/hlr"
	"github.com/smishkit/smishkit/internal/telemetry"
)

// Mux is one shared batching tier: a per-service set of self-clocking batchers
// that decorate the core.Services seam. Build one per study and attach it
// with WrapServices.
type Mux struct {
	cfg        Config
	sem        chan struct{}
	perService map[string]*metrics
}

// New builds a mux recording into reg (nil is allowed: counters become
// no-ops and Stats still works off zero values — but pair it with the
// study's registry so batching effectiveness lands next to the client
// metrics).
func New(cfg Config, reg *telemetry.Registry) *Mux {
	cfg = cfg.withDefaults()
	m := &Mux{
		cfg:        cfg,
		sem:        make(chan struct{}, cfg.MaxInFlight),
		perService: make(map[string]*metrics, 3),
	}
	for _, name := range []string{"hlr", "dnsdb", "avscan"} {
		m.perService[name] = newMetrics(reg, name)
	}
	return m
}

// WrapServices decorates every batchable non-nil service. Services with
// no bulk form (whois, ctlog, shortener) pass through untouched; batchable
// services whose client lacks the core.Bulk* seam get a counting
// fallthrough wrapper so the gap is visible in telemetry.
func (m *Mux) WrapServices(s core.Services) core.Services {
	if s.HLR != nil {
		s.HLR = m.HLR(s.HLR)
	}
	if s.DNSDB != nil {
		s.DNSDB = m.DNSDB(s.DNSDB)
	}
	if s.AVScan != nil {
		s.AVScan = m.AVScan(s.AVScan)
	}
	return s
}

// HLR batches next's lookups by normalized MSISDN when next implements
// core.BulkHLRLookuper, else counts per-key fallthrough.
func (m *Mux) HLR(next core.HLRLookuper) core.HLRLookuper {
	met := m.perService["hlr"]
	bulk, ok := next.(core.BulkHLRLookuper)
	if !ok {
		return &fallthroughHLR{next: next, met: met}
	}
	sc := m.cfg.forService("hlr")
	return &batchedHLR{
		next: next,
		b: newBatcher(sc, m.cfg.BatchTimeout, m.sem, met,
			func(ctx context.Context, keys []string) ([]hlr.Result, []error) {
				return bulk.LookupBatch(ctx, keys)
			}),
	}
}

// DNSDB batches next's pDNS resolutions by normalized domain when next
// implements core.BulkDNSResolver; ASOf always passes through per-key
// (the IP chain fans out from each domain's own observations).
func (m *Mux) DNSDB(next core.DNSResolver) core.DNSResolver {
	met := m.perService["dnsdb"]
	bulk, ok := next.(core.BulkDNSResolver)
	if !ok {
		return &fallthroughDNS{next: next, met: met}
	}
	sc := m.cfg.forService("dnsdb")
	return &batchedDNS{
		next: next,
		b: newBatcher(sc, m.cfg.BatchTimeout, m.sem, met,
			func(ctx context.Context, keys []string) ([][]dnsdb.Observation, []error) {
				return bulk.ResolutionsBatch(ctx, keys)
			}),
	}
}

// AVScan batches next's vendor-aggregate scans and Safe Browsing lookups
// (separate windows, shared scoreboard) when next implements
// core.BulkAVScanner; Transparency always passes through per-key — the
// transparency site refuses automation, so there is nothing to batch.
func (m *Mux) AVScan(next core.AVScanner) core.AVScanner {
	met := m.perService["avscan"]
	bulk, ok := next.(core.BulkAVScanner)
	if !ok {
		return &fallthroughAV{next: next, met: met}
	}
	sc := m.cfg.forService("avscan")
	return &batchedAV{
		next: next,
		scan: newBatcher(sc, m.cfg.BatchTimeout, m.sem, met,
			func(ctx context.Context, keys []string) ([]avscan.Report, []error) {
				return bulk.ScanBatch(ctx, keys)
			}),
		gsb: newBatcher(sc, m.cfg.BatchTimeout, m.sem, met,
			func(ctx context.Context, keys []string) ([]avscan.GSBResult, []error) {
				return bulk.GSBLookupBatch(ctx, keys)
			}),
	}
}

// Stats snapshots every service's counters.
func (m *Mux) Stats() Stats {
	out := make(Stats, len(m.perService))
	for name, met := range m.perService {
		out[name] = ServiceStats{
			Flushes:     met.flushes.Value(),
			BatchedKeys: met.batchSize.Value(),
			Coalesced:   met.coalesced.Value(),
			Fallthrough: met.fellThrough.Value(),
		}
	}
	return out
}

// normalizeKey folds case and whitespace, matching the cache tier above
// and the case-insensitive stores below, so a window never carries two
// spellings of one key.
func normalizeKey(s string) string {
	return strings.ToLower(strings.TrimSpace(s))
}

type batchedHLR struct {
	next core.HLRLookuper
	b    *batcher[hlr.Result]
}

func (d *batchedHLR) Lookup(ctx context.Context, msisdn string) (hlr.Result, error) {
	return d.b.get(ctx, normalizeKey(msisdn))
}

type batchedDNS struct {
	next core.DNSResolver
	b    *batcher[[]dnsdb.Observation]
}

func (d *batchedDNS) Resolutions(ctx context.Context, domain string) ([]dnsdb.Observation, error) {
	return d.b.get(ctx, normalizeKey(domain))
}

func (d *batchedDNS) ASOf(ctx context.Context, ip string) (dnsdb.ASInfo, error) {
	return d.next.ASOf(ctx, ip)
}

type batchedAV struct {
	next core.AVScanner
	scan *batcher[avscan.Report]
	gsb  *batcher[avscan.GSBResult]
}

func (d *batchedAV) Scan(ctx context.Context, u string) (avscan.Report, error) {
	return d.scan.get(ctx, u)
}

func (d *batchedAV) GSBLookup(ctx context.Context, u string) (avscan.GSBResult, error) {
	return d.gsb.get(ctx, u)
}

func (d *batchedAV) Transparency(ctx context.Context, u string) (avscan.TransparencyResult, bool, error) {
	return d.next.Transparency(ctx, u)
}

type fallthroughHLR struct {
	next core.HLRLookuper
	met  *metrics
}

func (d *fallthroughHLR) Lookup(ctx context.Context, msisdn string) (hlr.Result, error) {
	d.met.fellThrough.Inc()
	return d.next.Lookup(ctx, msisdn)
}

type fallthroughDNS struct {
	next core.DNSResolver
	met  *metrics
}

func (d *fallthroughDNS) Resolutions(ctx context.Context, domain string) ([]dnsdb.Observation, error) {
	d.met.fellThrough.Inc()
	return d.next.Resolutions(ctx, domain)
}

func (d *fallthroughDNS) ASOf(ctx context.Context, ip string) (dnsdb.ASInfo, error) {
	return d.next.ASOf(ctx, ip)
}

type fallthroughAV struct {
	next core.AVScanner
	met  *metrics
}

func (d *fallthroughAV) Scan(ctx context.Context, u string) (avscan.Report, error) {
	d.met.fellThrough.Inc()
	return d.next.Scan(ctx, u)
}

func (d *fallthroughAV) GSBLookup(ctx context.Context, u string) (avscan.GSBResult, error) {
	d.met.fellThrough.Inc()
	return d.next.GSBLookup(ctx, u)
}

func (d *fallthroughAV) Transparency(ctx context.Context, u string) (avscan.TransparencyResult, bool, error) {
	return d.next.Transparency(ctx, u)
}

package main

import (
	"context"

	"github.com/smishkit/smishkit/internal/avscan"
	"github.com/smishkit/smishkit/internal/core"
	"github.com/smishkit/smishkit/internal/ctlog"
	"github.com/smishkit/smishkit/internal/dnsdb"
	"github.com/smishkit/smishkit/internal/hlr"
	"github.com/smishkit/smishkit/internal/whois"
)

// shim wraps every service of s in a timing shim that records a span
// named "<layer>.<service>.<method>" around each call. Where the wrapped
// service implements a core.Bulk* seam the shim forwards it too: without
// that, batchmux would see no bulk seam, fall through to per-key calls,
// and the trace would measure a different program.
func shim(t *tracer, layer string, s core.Services) core.Services {
	base := shimBase{t: t, layer: layer}
	if s.HLR != nil {
		h := &shimHLR{shimBase: base, next: s.HLR}
		if b, ok := s.HLR.(core.BulkHLRLookuper); ok {
			s.HLR = &shimBulkHLR{shimHLR: h, bulk: b}
		} else {
			s.HLR = h
		}
	}
	if s.Whois != nil {
		s.Whois = &shimWhois{shimBase: base, next: s.Whois}
	}
	if s.CTLog != nil {
		s.CTLog = &shimCT{shimBase: base, next: s.CTLog}
	}
	if s.DNSDB != nil {
		d := &shimDNS{shimBase: base, next: s.DNSDB}
		if b, ok := s.DNSDB.(core.BulkDNSResolver); ok {
			s.DNSDB = &shimBulkDNS{shimDNS: d, bulk: b}
		} else {
			s.DNSDB = d
		}
	}
	if s.AVScan != nil {
		a := &shimAV{shimBase: base, next: s.AVScan}
		if b, ok := s.AVScan.(core.BulkAVScanner); ok {
			s.AVScan = &shimBulkAV{shimAV: a, bulk: b}
		} else {
			s.AVScan = a
		}
	}
	if s.Shortener != nil {
		s.Shortener = &shimShort{shimBase: base, next: s.Shortener}
	}
	return s
}

type shimBase struct {
	t     *tracer
	layer string
}

func (b shimBase) begin(ctx context.Context, svc, method string, keys ...string) (context.Context, *open) {
	return b.t.begin(ctx, b.layer+"."+svc+"."+method, 0, keys...)
}

type shimHLR struct {
	shimBase
	next core.HLRLookuper
}

func (s *shimHLR) Lookup(ctx context.Context, msisdn string) (hlr.Result, error) {
	ctx, sp := s.begin(ctx, "hlr", "Lookup", msisdn)
	r, err := s.next.Lookup(ctx, msisdn)
	sp.end(err)
	return r, err
}

type shimBulkHLR struct {
	*shimHLR
	bulk core.BulkHLRLookuper
}

func (s *shimBulkHLR) LookupBatch(ctx context.Context, msisdns []string) ([]hlr.Result, []error) {
	ctx, sp := s.begin(ctx, "hlr", "LookupBatch", msisdns...)
	r, errs := s.bulk.LookupBatch(ctx, msisdns)
	sp.end(firstErr(errs))
	return r, errs
}

type shimWhois struct {
	shimBase
	next core.WhoisLookuper
}

func (s *shimWhois) Lookup(ctx context.Context, domain string) (whois.Record, bool, error) {
	ctx, sp := s.begin(ctx, "whois", "Lookup", domain)
	r, found, err := s.next.Lookup(ctx, domain)
	sp.end(err)
	return r, found, err
}

type shimCT struct {
	shimBase
	next core.CTSummarizer
}

func (s *shimCT) Summary(ctx context.Context, domain string) (ctlog.Summary, error) {
	ctx, sp := s.begin(ctx, "ctlog", "Summary", domain)
	r, err := s.next.Summary(ctx, domain)
	sp.end(err)
	return r, err
}

type shimDNS struct {
	shimBase
	next core.DNSResolver
}

func (s *shimDNS) Resolutions(ctx context.Context, domain string) ([]dnsdb.Observation, error) {
	ctx, sp := s.begin(ctx, "dnsdb", "Resolutions", domain)
	r, err := s.next.Resolutions(ctx, domain)
	sp.end(err)
	return r, err
}

func (s *shimDNS) ASOf(ctx context.Context, ip string) (dnsdb.ASInfo, error) {
	ctx, sp := s.begin(ctx, "dnsdb", "ASOf", ip)
	r, err := s.next.ASOf(ctx, ip)
	sp.end(err)
	return r, err
}

type shimBulkDNS struct {
	*shimDNS
	bulk core.BulkDNSResolver
}

func (s *shimBulkDNS) ResolutionsBatch(ctx context.Context, domains []string) ([][]dnsdb.Observation, []error) {
	ctx, sp := s.begin(ctx, "dnsdb", "ResolutionsBatch", domains...)
	r, errs := s.bulk.ResolutionsBatch(ctx, domains)
	sp.end(firstErr(errs))
	return r, errs
}

type shimAV struct {
	shimBase
	next core.AVScanner
}

func (s *shimAV) Scan(ctx context.Context, u string) (avscan.Report, error) {
	ctx, sp := s.begin(ctx, "avscan", "Scan", u)
	r, err := s.next.Scan(ctx, u)
	sp.end(err)
	return r, err
}

func (s *shimAV) GSBLookup(ctx context.Context, u string) (avscan.GSBResult, error) {
	ctx, sp := s.begin(ctx, "avscan", "GSBLookup", u)
	r, err := s.next.GSBLookup(ctx, u)
	sp.end(err)
	return r, err
}

func (s *shimAV) Transparency(ctx context.Context, u string) (avscan.TransparencyResult, bool, error) {
	ctx, sp := s.begin(ctx, "avscan", "Transparency", u)
	r, blocked, err := s.next.Transparency(ctx, u)
	sp.end(err)
	return r, blocked, err
}

type shimBulkAV struct {
	*shimAV
	bulk core.BulkAVScanner
}

func (s *shimBulkAV) ScanBatch(ctx context.Context, urls []string) ([]avscan.Report, []error) {
	ctx, sp := s.begin(ctx, "avscan", "ScanBatch", urls...)
	r, errs := s.bulk.ScanBatch(ctx, urls)
	sp.end(firstErr(errs))
	return r, errs
}

func (s *shimBulkAV) GSBLookupBatch(ctx context.Context, urls []string) ([]avscan.GSBResult, []error) {
	ctx, sp := s.begin(ctx, "avscan", "GSBLookupBatch", urls...)
	r, errs := s.bulk.GSBLookupBatch(ctx, urls)
	sp.end(firstErr(errs))
	return r, errs
}

type shimShort struct {
	shimBase
	next core.ShortExpander
}

func (s *shimShort) Expand(ctx context.Context, service, code string) (string, error) {
	ctx, sp := s.begin(ctx, "shortener", "Expand", service+"/"+code)
	r, err := s.next.Expand(ctx, service, code)
	sp.end(err)
	return r, err
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

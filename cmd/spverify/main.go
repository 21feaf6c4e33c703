// Command spverify audits the integrity of flat container files — the index,
// graph and R-tree caches written by spserve and the Save* APIs — without
// loading them into a serving process.
//
// Usage:
//
//	spverify [-q] [-strict] file...
//
// For each file it parses the container structure, then checks the
// header/table/meta CRC and every section's CRC32C, reporting a verdict
// per section. The exit status is the fleet-automation contract:
//
//	0  every file verified clean (or, without -strict, was unauditable)
//	1  at least one file is corrupt — structural damage or a checksum
//	   mismatch; rebuild it from source data before serving from it
//	2  usage error, or a file could not be read at all — missing,
//	   unreadable, or not a flat container ("not a roadnet index file")
//
// Files written before checksum support carry no checksums; they parse but
// cannot be audited. By default these are reported as "unauditable" and do
// not fail the run; -strict treats them as failures, for fleets that
// require every serving byte to be attestable. Rewriting such a file with the current tools (load it, save
// it) upgrades it to the checksummed layout.
//
// Auditing maps the file read-only and streams one sequential CRC sweep;
// a multi-GB index audit allocates almost nothing.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"roadnet/internal/binio"
)

func main() {
	quiet := flag.Bool("q", false, "print only failures and the final verdict line")
	strict := flag.Bool("strict", false, "treat unauditable files (flat files written without checksums) as failures")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: spverify [-q] [-strict] file...\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	exit := 0
	raise := func(code int) {
		if code > exit {
			exit = code
		}
	}
	for _, path := range flag.Args() {
		switch verdict, err := audit(path, *quiet); verdict {
		case auditOK:
			fmt.Printf("%s: ok\n", path)
		case auditUnauditable:
			fmt.Printf("%s: unauditable: %v\n", path, err)
			if *strict {
				raise(1)
			}
		case auditCorrupt:
			fmt.Fprintf(os.Stderr, "%s: CORRUPT: %v\n", path, err)
			raise(1)
		case auditUnreadable:
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			raise(2)
		}
	}
	os.Exit(exit)
}

type auditVerdict int

const (
	auditOK auditVerdict = iota
	auditUnauditable
	auditCorrupt
	auditUnreadable
)

// audit opens one file without the load-time verification sweep, then runs
// the sweep itself so it can attribute a failure to the header or to a
// specific section.
func audit(path string, quiet bool) (auditVerdict, error) {
	f, err := binio.OpenFlat(path, true, binio.WithoutVerify())
	if err != nil {
		switch {
		case errors.Is(err, binio.ErrNotFlat):
			return auditUnreadable, fmt.Errorf("not a roadnet index file: %w", err)
		case errors.Is(err, binio.ErrCorrupt):
			return auditCorrupt, err
		default:
			return auditUnreadable, err
		}
	}
	defer f.Close()

	if !quiet {
		fmt.Printf("%s: %s, %d sections, %d bytes, %s\n",
			path, binio.FourccString(f.Fourcc()), f.NumSections(), f.SizeBytes(), binio.Mode(f.Mapped()))
	}
	if !f.HasChecksums() {
		return auditUnauditable, errors.New("no checksums (written before checksum support); rewrite the file to upgrade it")
	}

	if err := f.VerifyHeader(); err != nil {
		return auditCorrupt, err
	}
	if !quiet {
		fmt.Printf("  header/table/meta: ok\n")
	}
	for i := 0; i < f.NumSections(); i++ {
		if err := f.VerifySection(i); err != nil {
			return auditCorrupt, err
		}
		if !quiet {
			kind, size := f.SectionInfo(i)
			fmt.Printf("  section %d (%s, %d bytes): ok\n", i, kind, size)
		}
	}
	return auditOK, nil
}

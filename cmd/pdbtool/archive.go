package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/archive"
)

// cmdArchive inspects a compressed log archive directory (the
// <db>/archive directory an archiving seqrtg writes).
//
//	pdbtool archive ls DIR               list blocks with header metadata
//	pdbtool archive dump DIR [filters]   print archived records as JSON lines
//
// ls prints one line per block: FILE@OFFSET for a block inside a
// segment, FILE alone for a block file of the earlier one-block-per-file
// format. It reports corrupt segments instead of failing on them — like
// journal dump, it is the operator's view after a crash, and a damaged
// segment is a finding, not an error.
func cmdArchive(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: pdbtool archive ls|dump DIR [flags]")
	}
	switch args[0] {
	case "ls":
		return cmdArchiveLs(args[1:])
	case "dump":
		return cmdArchiveDump(args[1:])
	default:
		return fmt.Errorf("archive: unknown subcommand %q (want ls or dump)", args[0])
	}
}

func openArchive(fs *flag.FlagSet) (*archive.Archive, error) {
	if fs.NArg() != 1 {
		return nil, fmt.Errorf("archive: exactly one archive directory argument required")
	}
	return archive.Open(fs.Arg(0), archive.Options{})
}

func cmdArchiveLs(args []string) error {
	fs := flag.NewFlagSet("archive ls", flag.ExitOnError)
	fs.Parse(args)
	a, err := openArchive(fs)
	if err != nil {
		return err
	}
	blocks, err := a.Blocks()
	if err != nil {
		return err
	}
	corrupt := 0
	var records, bytes int
	for _, b := range blocks {
		if b.Corrupt != "" {
			corrupt++
			fmt.Printf("%s  CORRUPT: %s\n", b.File, b.Corrupt)
			continue
		}
		records += b.Records
		bytes += b.Bytes
		where := b.File
		if !b.Legacy {
			where = fmt.Sprintf("%s@%d", b.File, b.Offset)
		}
		fmt.Printf("%s  service=%s bucket=%s records=%d patterns=%d bytes=%d span=[%s, %s]\n",
			where, b.Service, time.Unix(b.Bucket, 0).UTC().Format(time.RFC3339),
			b.Records, b.Patterns, b.Bytes,
			archive.FormatTime(b.MinTime), archive.FormatTime(b.MaxTime))
	}
	fmt.Printf("%d blocks, %d records, %d bytes", len(blocks)-corrupt, records, bytes)
	if corrupt > 0 {
		fmt.Printf(", %d corrupt", corrupt)
	}
	fmt.Println()
	return nil
}

func cmdArchiveDump(args []string) error {
	fs := flag.NewFlagSet("archive dump", flag.ExitOnError)
	service := fs.String("service", "", "restrict to one service")
	patternID := fs.String("pattern", "", "restrict to one pattern ID")
	from := fs.String("from", "", "inclusive lower time bound (RFC 3339)")
	to := fs.String("to", "", "exclusive upper time bound (RFC 3339)")
	limit := fs.Int("limit", 0, "stop after N records (0 = all)")
	fs.Parse(args)
	a, err := openArchive(fs)
	if err != nil {
		return err
	}
	q := archive.Query{Service: *service, PatternID: *patternID, Limit: *limit}
	if *from != "" {
		if q.From, err = time.Parse(time.RFC3339Nano, *from); err != nil {
			return fmt.Errorf("archive dump: -from: %w", err)
		}
	}
	if *to != "" {
		if q.To, err = time.Parse(time.RFC3339Nano, *to); err != nil {
			return fmt.Errorf("archive dump: -to: %w", err)
		}
	}
	entries, err := a.Query(q)
	if err != nil {
		return err
	}
	out := json.NewEncoder(os.Stdout)
	for _, e := range entries {
		if err := out.Encode(e); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "%d records\n", len(entries))
	return nil
}

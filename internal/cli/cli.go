// Package cli is the command-line contract the binaries under cmd/ share.
// A command is run(ctx, args, stdout, stderr) int: it binds its flags into
// a set from NewFlagSet and hands the set and its work to Run, which
// rejects a leftover argument, serves net/http/pprof behind -pprof and
// maps the outcome to one exit status: 0 for success and for -h; 2 for a
// command line that cannot be parsed (an unknown or malformed flag, a
// leftover argument, a missing subcommand); 1 for a value that parses but
// is rejected, and for any runtime error; 130 for cancellation. A failure
// is one stderr line, "<cmd>: <err>". Nothing here touches the process's
// standard streams, so a command's tests run it in-process.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"strings"

	"gossipkit/internal/obs"
)

// NewFlagSet returns a command's flag set: parse errors come back to Run,
// messages and usage go to stderr, and -pprof is registered. The first
// word of name ("gossipmodel design" → "gossipmodel") prefixes the
// command's error line.
func NewFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	return fs
}

// UsageError is a command line that parses but names no work. Run exits 2
// on it.
type UsageError string

func (e UsageError) Error() string { return string(e) }

// Run parses args into fs, brings up -pprof when set, runs body and
// returns the exit status. The flag package reports a malformed flag
// itself, with the usage.
func Run(fs *flag.FlagSet, args []string, body func() error) int {
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	name, _, _ := strings.Cut(fs.Name(), " ")
	err := func() error {
		if fs.NArg() > 0 { // parsing stopped there: every later flag would be dropped
			return UsageError(fmt.Sprintf("unexpected argument %q", fs.Arg(0)))
		}
		if addr := fs.Lookup("pprof").Value.String(); addr != "" {
			bound, err := obs.StartPprof(addr)
			if err != nil {
				return err
			}
			fmt.Fprintf(fs.Output(), "%s: pprof on http://%s/debug/pprof/\n", name, bound)
		}
		return body()
	}()
	switch {
	case err == nil:
		return 0
	case errors.Is(err, context.Canceled):
		fmt.Fprintf(fs.Output(), "%s: interrupted\n", name)
		return 130
	}
	fmt.Fprintf(fs.Output(), "%s: %v\n", name, err)
	if errors.As(err, new(UsageError)) {
		return 2
	}
	return 1
}

// Subcommands runs the subcommand args[0] names on the rest of args. A
// missing or unknown one prints usage to stderr and exits 2; -h, -help,
// --help and help print it and exit 0.
func Subcommands(args []string, stderr io.Writer, usage string, subs map[string]func(args []string) int) int {
	status := 2
	if len(args) > 0 {
		if sub, ok := subs[args[0]]; ok {
			return sub(args[1:])
		}
		switch args[0] {
		case "-h", "-help", "--help", "help":
			status = 0
		}
	}
	fmt.Fprint(stderr, usage)
	return status
}

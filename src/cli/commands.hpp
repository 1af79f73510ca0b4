// Command implementations for the `hyperproteome` command-line tool.
//
// Kept as a library so the unit tests can drive each command directly;
// tools/hp_cli_main.cpp is a thin argv wrapper. Every command writes
// human-readable output to the given stream and returns a process exit
// code (0 = success). Errors print a message and return 1 rather than
// throwing across main.
//
// Input formats are selected by file extension:
//   .hyper        hp-hyper text format (hypergraph_io)
//   .hgr          hMETIS / PaToH
//   .hpb          binary hypergraph (binary_io)
//   .hps          mmap'd snapshot (core/snapshot; zero-copy open)
//   .mtx          MatrixMarket (converted via the row-net model)
//   .tsv / .txt   protein-complex membership table (names preserved)
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "bio/complex_io.hpp"
#include "util/args.hpp"

namespace hp::cli {

/// Load any supported file into a ComplexDataset and validate its
/// structure (hyper::validate). Formats without protein names get the
/// numbered "v<i>" / "f<i>" names of bio::NameTable, computed when a
/// command prints them rather than built per id, so a nameless load
/// costs the read plus one validation pass. Throws on parse/I-O errors
/// and on a structurally invalid file.
bio::ComplexDataset load_dataset(const std::string& path);

/// Save a dataset to any supported output format (chosen by
/// extension). Complex-table output preserves names; the rest discard
/// them.
void save_dataset(const bio::ComplexDataset& data, const std::string& path);

int cmd_stats(const Args& args, std::ostream& out);
int cmd_report(const Args& args, std::ostream& out);
int cmd_core(const Args& args, std::ostream& out);
int cmd_cover(const Args& args, std::ostream& out);
int cmd_match(const Args& args, std::ostream& out);
int cmd_soverlap(const Args& args, std::ostream& out);
int cmd_smallworld(const Args& args, std::ostream& out);
int cmd_convert(const Args& args, std::ostream& out);
int cmd_generate(const Args& args, std::ostream& out);
int cmd_pajek(const Args& args, std::ostream& out);
int cmd_render(const Args& args, std::ostream& out);
int cmd_mutate(const Args& args, std::ostream& out);
int cmd_snapshot(const Args& args, std::ostream& out);

/// Extension point for layers above the core CLI library. The analysis
/// server (src/serve/) registers its `serve` and `query` subcommands
/// through this hook from the binary's main(), so hp_cli never links
/// hp_serve (the dependency goes the other way: hp_serve reuses the
/// query layer). `span` must be a string literal ("cli.serve") -- the
/// tracer stores the pointer. Registering an existing name replaces it.
/// `usage_blurb` is appended to usage(); end it with a newline.
void register_command(const std::string& name, const char* span,
                      int (*fn)(const Args&, std::ostream&),
                      const std::string& usage_blurb);

/// Dispatch on the first positional argument (built-in commands first,
/// then register_command() entries); prints usage on unknown/missing
/// commands and returns 2.
int run(const Args& args, std::ostream& out);

/// The usage text.
std::string usage();

}  // namespace hp::cli

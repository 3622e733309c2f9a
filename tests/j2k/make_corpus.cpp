// Regenerates the golden corpus under tests/j2k/corpus/ and prints the
// FNV-1a hash of each decoded image — paste those into test_golden.cpp when
// the codestream format changes on purpose.
//
//   ./corpus_gen <output-dir>
//
// The streams are produced from make_test_image (deterministic by seed) per
// the specs in corpus_specs.hpp, so the corpus is fully reproducible from
// source alone.
#include "corpus_specs.hpp"

#include <runtime/hash.hpp>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

int main(int argc, char** argv)
{
    const std::string dir = argc > 1 ? argv[1] : "tests/j2k/corpus";
    for (const auto& s : j2k_corpus::k_specs) {
        const std::vector<std::uint8_t> cs = j2k::encode(s.src.make(), s.params);
        std::ofstream out{dir + "/" + s.file, std::ios::binary};
        out.write(reinterpret_cast<const char*>(cs.data()),
                  static_cast<std::streamsize>(cs.size()));
        const j2k::image img = j2k::decode(cs);
        std::printf("%-16s %6zu bytes  fnv1a=0x%016llXull\n", s.file, cs.size(),
                    static_cast<unsigned long long>(runtime::fnv1a_image(img)));
    }
    return 0;
}

//===- mir/Module.cpp - machine IR containers -------------------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "mir/Module.h"

#include "isa/Encoding.h"

using namespace ramloc;

int Function::blockIndex(const std::string &Label) const {
  for (unsigned I = 0, E = Blocks.size(); I != E; ++I)
    if (Blocks[I].Label == Label)
      return static_cast<int>(I);
  return -1;
}

unsigned Function::codeSizeBytes() const {
  unsigned Size = 0;
  for (const auto &BB : Blocks)
    for (const auto &I : BB.Instrs)
      Size += encodingSizeBytes(I);
  return Size;
}

Function *Module::findFunction(const std::string &Name) {
  int Idx = functionIndex(Name);
  return Idx < 0 ? nullptr : &Functions[static_cast<unsigned>(Idx)];
}

const Function *Module::findFunction(const std::string &Name) const {
  int Idx = functionIndex(Name);
  return Idx < 0 ? nullptr : &Functions[static_cast<unsigned>(Idx)];
}

int Module::functionIndex(const std::string &Name) const {
  for (unsigned I = 0, E = Functions.size(); I != E; ++I)
    if (Functions[I].Name == Name)
      return static_cast<int>(I);
  return -1;
}

DataObject *Module::findData(const std::string &Name) {
  for (auto &D : Data)
    if (D.Name == Name)
      return &D;
  return nullptr;
}

const DataObject *Module::findData(const std::string &Name) const {
  for (const auto &D : Data)
    if (D.Name == Name)
      return &D;
  return nullptr;
}

static std::vector<uint8_t> wordsToBytes(const std::vector<uint32_t> &Words) {
  std::vector<uint8_t> Bytes;
  Bytes.reserve(Words.size() * 4);
  for (uint32_t W : Words) {
    Bytes.push_back(static_cast<uint8_t>(W));
    Bytes.push_back(static_cast<uint8_t>(W >> 8));
    Bytes.push_back(static_cast<uint8_t>(W >> 16));
    Bytes.push_back(static_cast<uint8_t>(W >> 24));
  }
  return Bytes;
}

DataObject &Module::addRodataWords(const std::string &Name,
                                   const std::vector<uint32_t> &Words) {
  DataObject D;
  D.Name = Name;
  D.Sect = DataObject::Section::Rodata;
  D.Bytes = wordsToBytes(Words);
  Data.push_back(std::move(D));
  return Data.back();
}

DataObject &Module::addDataWords(const std::string &Name,
                                 const std::vector<uint32_t> &Words) {
  DataObject D;
  D.Name = Name;
  D.Sect = DataObject::Section::Data;
  D.Bytes = wordsToBytes(Words);
  Data.push_back(std::move(D));
  return Data.back();
}

DataObject &Module::addBss(const std::string &Name, uint32_t Bytes,
                           uint32_t Align) {
  DataObject D;
  D.Name = Name;
  D.Sect = DataObject::Section::Bss;
  D.Size = Bytes;
  D.Align = Align;
  Data.push_back(std::move(D));
  return Data.back();
}

unsigned Module::numBlocks() const {
  unsigned N = 0;
  for (const auto &F : Functions)
    N += F.Blocks.size();
  return N;
}

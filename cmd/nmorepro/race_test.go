//go:build race

package main

// quickExps is the part of the quick subset that TestQuickArtifactsGolden
// runs under the race detector, which slows the simulator about
// twentyfold: the full subset took minutes there. The artifacts left
// out (fig9, fig10, fig11, ext-bias, xisa) run the engine, session and
// sweep code the kept ones run; the plain test and CI's nmorepro job
// still compare them.
const quickExps = "tab1,tab2,fig2,fig3,fig4,fig5,fig6"
